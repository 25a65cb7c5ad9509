package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"yat"
	"yat/internal/engine"
	"yat/internal/relational"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// Sizes of convert_batch: one conversion is the Figure 1 pipeline of
// examples/cardealer over this many generated brochures, sized so a
// slice of the window holds over a hundred conversions. The supplier
// pool is small against the 120 citations, so every seed cites every
// supplier and the conversions of different seeds produce the same
// number of objects and pages to within 2 % (a pool of 50 gave ±6 %,
// which showed as ±6 % in the latency).
const (
	convertBrochures   = 40
	convertSupsPer     = 3
	convertSuppliers   = 20
	convertVerifyEvery = 8 // one conversion in this many is digested, not just counted
)

// The three programs of the pipeline: SGML → ODMG (Rules 1+2), the
// SGML × relational join (Rule 3), and ODMG → HTML (Web1–Web6).
var convertSources = []string{yat.Rules1And2, "program join\n" + yatl.Rule3Source, yat.WebRules}

// convertInputs is what the generators hand the program under test:
// raw SGML documents and a relational database.
type convertInputs struct {
	docs map[string]string
	db   *relational.Database
}

func newConvertInputs(seed uint64) convertInputs {
	pool := workload.Suppliers(convertSuppliers, seed)
	brochures := workload.Brochures(convertBrochures, convertSupsPer, pool, seed)
	docs := make(map[string]string, len(brochures))
	for i, b := range brochures {
		docs[fmt.Sprintf("b%d", i+1)] = b.SGML()
	}
	return convertInputs{docs: docs, db: workload.DealerDatabase(brochures, pool, seed)}
}

// converter is the pipeline with its programs parsed. opts returns
// the engine options of program i; the measured path passes
// precomputed facts, the oracle turns the optimizer off.
type converter struct {
	progs []*yat.Program
	opts  func(i int) []yat.Option
}

// newConverter is the pipeline's set-up as a batch converter would do
// it once: parse each program and precompute its optimizer facts.
func newConverter() (*converter, error) {
	c := &converter{}
	var facts []*yat.ProgramFacts
	for _, src := range convertSources {
		p, err := yat.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		c.progs = append(c.progs, p)
		facts = append(facts, yat.AnalyzeProgram(p))
	}
	c.opts = func(i int) []yat.Option { return []yat.Option{yat.WithFacts(facts[i])} }
	return c, nil
}

// conversion is one pipeline outcome.
type conversion struct {
	outputs *yat.Store
	pages   map[string]string
	stats   [3]engine.Stats // per program, in pipeline order
}

// convert runs the pipeline once. stage, when non-nil, is told the
// name of each stage as it begins and returns the function that ends
// it — how the traced run wraps spans around the calls into each layer.
func (c *converter) convert(in convertInputs, stage func(string) func()) (*conversion, error) {
	if stage == nil {
		stage = func(string) func() { return func() {} }
	}
	end := stage("wrapper.import_sgml")
	sgml, err := yat.ImportSGML(in.docs, nil)
	end()
	if err != nil {
		return nil, err
	}
	end = stage("wrapper.import_rel")
	rel := yat.ImportRelational(in.db)
	end()
	inputs := yat.NewStore()
	for _, e := range sgml.Entries() {
		inputs.Put(e.Name, e.Tree)
	}
	for _, e := range rel.Entries() {
		inputs.Put(e.Name, e.Tree)
	}

	out := &conversion{}
	objects := yat.NewStore()
	end = stage("engine.run_sgml2odmg")
	for i := 0; i < 2; i++ {
		res, err := yat.Run(c.progs[i], inputs, c.opts(i)...)
		if err != nil {
			end()
			return nil, err
		}
		out.stats[i] = res.Stats
		for _, e := range res.Outputs.Entries() {
			objects.Put(e.Name, e.Tree)
		}
	}
	end()

	end = stage("engine.run_odmg2html")
	res, err := yat.Run(c.progs[2], objects, c.opts(2)...)
	end()
	if err != nil {
		return nil, err
	}
	out.stats[2] = res.Stats
	out.outputs = res.Outputs

	end = stage("wrapper.export_html")
	out.pages, err = yat.ExportHTML(res.Outputs, nil)
	end()
	return out, err
}

// digest is the conversion's canonical bytes: the formatted output
// store followed by the HTML pages in URL order.
func (c *conversion) digest() digest {
	h := sha256.New()
	io.WriteString(h, yat.FormatStore(c.outputs))
	urls := make([]string, 0, len(c.pages))
	for u := range c.pages {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		fmt.Fprintf(h, "\x00%s\n%s", u, c.pages[u])
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// convertOracle is the expected digest from the independent path: the
// same pipeline with every fact-driven optimization off.
func convertOracle(in convertInputs) (digest, int, error) {
	c, err := newConverter()
	if err != nil {
		return digest{}, 0, err
	}
	c.opts = func(int) []yat.Option { return []yat.Option{yat.WithOptimize(false)} }
	out, err := c.convert(in, nil)
	if err != nil {
		return digest{}, 0, err
	}
	return out.digest(), len(out.pages), nil
}

// convertLoop is the sequential closed loop: conversions back to back,
// refPerConversion reference rounds after each, until the warm-up's
// and the window's worth of conversion time has been spent. The loop's
// clock is the sum of conversion times, so the time the benchmark
// spends checking outputs and on reference rounds is outside every
// metric.
func convertLoop(c *converter, in convertInputs, want digest, wantPages int, warm, length time.Duration,
	stage func(string) func()) (loadResult, error) {
	asks, err := opBuffer(length)
	if err != nil {
		return loadResult{}, err
	}
	refs, err := opBuffer(length)
	if err != nil {
		return loadResult{}, err
	}
	res := loadResult{asks: asks, refs: refs}
	var clock time.Duration
	for n := 0; clock < warm+length; n++ {
		start := time.Now()
		out, err := c.convert(in, stage)
		took := time.Since(start)
		clock += took
		for i := 0; i < refPerConversion; i++ {
			if ms := referenceRound(); clock-took >= warm {
				res.refs = append(res.refs, op{done: clock - warm, ms: ms})
			}
		}
		if clock-took < warm {
			continue
		}
		res.attempted++
		switch {
		case err != nil:
			return res, err
		case len(out.pages) != wantPages, n%convertVerifyEvery == 0 && out.digest() != want:
			res.failed++
			fmt.Fprintln(os.Stderr, "bench: failed operation: conversion differs from the unoptimized run")
		default:
			res.asks = append(res.asks, op{done: clock - warm, ms: float64(took) / 1e6})
		}
	}
	return res, nil
}
