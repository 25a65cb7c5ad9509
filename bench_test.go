package yat

// One benchmark per experiment of EXPERIMENTS.md (the paper has no
// quantitative tables; every figure and performance claim maps to a
// benchmark here — see DESIGN.md §4), plus ablations for the design
// choices called out in DESIGN.md §6. The six series of EXPERIMENTS.md
// (E1, E3, E5, E7, E8, E11) sweep their sizes as sub-benchmarks and
// report the counts of each table row (objects, pages, bindings, …) as
// metrics beside ns/op, so `go test -run '^$' -bench . .` regenerates
// every table.

import (
	"fmt"
	"testing"

	"yat/internal/compose"
	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/relational"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func mustProg(b *testing.B, src string) *Program {
	b.Helper()
	p, err := ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustRunB(b *testing.B, p *Program, s *Store) *Result {
	b.Helper()
	r, err := Run(p, s, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// --- E1: Figure 1 scenario ------------------------------------------------

func BenchmarkFig1Scenario(b *testing.B) {
	first := mustProg(b, Rules1And2)
	web := mustProg(b, WebRules)
	for _, n := range []int{5, 20, 100, 400} {
		inputs := workload.BrochureStore(n, 3, max(n/2, 2), 42)
		b.Run(fmt.Sprintf("brochures=%d", n), func(b *testing.B) {
			var objects, pages int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mid := mustRunB(b, first, inputs)
				interm := NewStore()
				for _, e := range mid.Outputs.Entries() {
					interm.Put(e.Name, e.Tree)
				}
				res := mustRunB(b, web, interm)
				out, err := ExportHTML(res.Outputs, nil)
				if err != nil {
					b.Fatal(err)
				}
				objects, pages = interm.Len(), len(out)
			}
			b.ReportMetric(float64(objects), "objects")
			b.ReportMetric(float64(pages), "pages")
		})
	}
}

// --- E2: Figure 2 instantiation chain --------------------------------------

func BenchmarkFig2Instantiation(b *testing.B) {
	golf := pattern.GolfModel()
	odmg := ODMGModel()
	car := CarSchemaModel()
	yatM := YatModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := InstanceOf(golf, car); err != nil {
			b.Fatal(err)
		}
		if err := InstanceOf(car, odmg); err != nil {
			b.Fatal(err)
		}
		if err := InstanceOf(odmg, yatM); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 3 / Rule 1 scaling ------------------------------------------

// Measured on a 2-vCPU Xeon container (go test -benchmem -cpu 2); the map
// interpreter before slot-compiled plans made 254 848 allocs/op here:
//
// BenchmarkFig3Rule1/brochures=1000-2   129   9110752 ns/op   2840 bindings   20.00 objects   2675046 B/op   23295 allocs/op
func BenchmarkFig3Rule1(b *testing.B) {
	prog := mustProg(b, "program p\n"+yatl.Rule1Source)
	for _, n := range []int{10, 100, 1000, 4000} {
		store := workload.BrochureStore(n, 3, 20, 42)
		b.Run(fmt.Sprintf("brochures=%d", n), func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = mustRunB(b, prog, store)
			}
			b.ReportMetric(float64(res.Stats.Bindings), "bindings")
			b.ReportMetric(float64(res.Outputs.Len()), "objects")
		})
	}
}

// --- E5: Rule 3 heterogeneous join ------------------------------------------

func BenchmarkRule3Join(b *testing.B) {
	prog := mustProg(b, "program p\n"+yatl.Rule3Source)
	for _, n := range []int{10, 50, 200, 800} {
		pool := workload.Suppliers(n/2+2, 7)
		brochures := workload.Brochures(n, 2, pool, 7)
		db := workload.DealerDatabase(brochures, pool, 7)
		store := NewStore()
		for i, br := range brochures {
			store.Put(PlainName(fmt.Sprintf("b%d", i+1)), br.Tree())
		}
		for _, e := range ImportRelational(db).Entries() {
			store.Put(e.Name, e.Tree)
		}
		rows := 0
		for _, name := range db.Names() {
			t, _ := db.Table(name)
			rows += t.Len()
		}
		b.Run(fmt.Sprintf("brochures=%d", n), func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = mustRunB(b, prog, store)
			}
			b.ReportMetric(float64(rows), "rows")
			b.ReportMetric(float64(countFunctor(res, "Pcar")), "cars")
		})
	}
}

// countFunctor counts a run's outputs minted by one Skolem functor.
func countFunctor(res *Result, functor string) int {
	n := 0
	for _, e := range res.Outputs.Entries() {
		if e.Name.Functor == functor {
			n++
		}
	}
	return n
}

// --- E6: Rule 4 ordered grouping --------------------------------------------

func BenchmarkRule4Grouping(b *testing.B) {
	prog := mustProg(b, "program p\n"+yatl.Rule4Source)
	store := workload.BrochureStore(100, 8, 40, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRunB(b, prog, store)
	}
}

// --- E7: Figure 4 transpose ---------------------------------------------------

func BenchmarkFig4Transpose(b *testing.B) {
	prog := mustProg(b, TransposeRule)
	for _, n := range []int{8, 32, 64, 128} {
		store := NewStore()
		store.Put(PlainName("m"), workload.MatrixTree(n, n))
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRunB(b, prog, store)
			}
			b.ReportMetric(float64(n*n), "cells")
		})
	}
}

// --- E8: the Web program ------------------------------------------------------

func BenchmarkWebProgram(b *testing.B) {
	prog := mustProg(b, WebRules)
	for _, n := range []int{5, 25, 100, 400} {
		store := workload.ODMGStore(n, n/2+1, 3, 11)
		b.Run(fmt.Sprintf("cars=%d", n), func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res = mustRunB(b, prog, store)
			}
			b.ReportMetric(float64(countFunctor(res, "HtmlPage")), "pages")
			b.ReportMetric(float64(countFunctor(res, "HtmlElement")), "elements")
		})
	}
}

// --- E9: deriving WebCar --------------------------------------------------------

func BenchmarkInstantiateWebCar(b *testing.B) {
	web := mustProg(b, WebRules)
	env := CarSchemaModel().Merge(ODMGModel())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Instantiate(web, pattern.PcarPattern(), env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: hierarchy dispatch ------------------------------------------------------

func BenchmarkHierarchyDispatch(b *testing.B) {
	// Dispatching through the six-rule Web hierarchy vs a program
	// where only the generic Web2 exists: the hierarchy adds the
	// specificity checks but converts objects the generic rule
	// cannot.
	full := mustProg(b, WebRules)
	store := workload.ODMGStore(25, 13, 3, 11)
	b.Run("full-hierarchy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustRunB(b, full, store)
		}
	})
	generic := mustProg(b, `
program web2only
`+yatl.ODMGModelSource+`
rule Web2 {
  head HtmlElement(Pany) = S
  from Pany = Data
  let S = data_to_string(Data)
}
`)
	b.Run("generic-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mustRunB(b, generic, store)
		}
	})
}

// BenchmarkRuleScan: what the one match path costs as rules multiply.
// Every activation is tried against every rule of a program of k
// distinct-rooted rules (≈ 1600 entries in all), and a rule that cannot
// match fails at the matcher's first label compare. The head-symbol
// dispatch index this scan replaced only pulled ahead at rule counts no
// shipped program or benchmark workload comes near (DESIGN.md "One
// match path" has both sides of every k).
func BenchmarkRuleScan(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		prog := mustProg(b, workload.PartitionedProgram(k))
		store := workload.PartitionedStore(k, 1600/k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRunB(b, prog, store)
			}
		})
	}
}

// --- E11: composed vs sequential (the §4.3 claim) -------------------------------

func BenchmarkComposedVsSequential(b *testing.B) {
	first := mustProg(b, Rules1And2Typed)
	second := mustProg(b, WebRules)
	composed, err := ComposePrograms(first, second)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{10, 50, 200, 800} {
		inputs := workload.BrochureStore(n, 3, n/2+2, 5)
		b.Run(fmt.Sprintf("sequential/brochures=%d", n), func(b *testing.B) {
			var intermediates int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mid := mustRunB(b, first, inputs)
				interm := NewStore()
				for _, e := range mid.Outputs.Entries() {
					interm.Put(e.Name, e.Tree)
				}
				intermediates = interm.Len()
				mustRunB(b, second, interm)
			}
			b.ReportMetric(float64(intermediates), "intermediates")
		})
		b.Run(fmt.Sprintf("composed/brochures=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRunB(b, composed, inputs)
			}
		})
	}
}

// --- E12: typing ------------------------------------------------------------------

func BenchmarkSignatureInference(b *testing.B) {
	prog := mustProg(b, WebRules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Infer(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks and ablations (DESIGN.md §6) ---------------------------------

func BenchmarkParseProgram(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseProgram(WebRules); err != nil {
			b.Fatal(err)
		}
	}
}

// One Rule 1 body matched against an 8-supplier brochure through its
// compiled pattern, the 8 bindings materialized as maps (2-vCPU Xeon):
//
// BenchmarkMatcherRule1-2   228091   6295 ns/op   2688 B/op   16 allocs/op
func BenchmarkMatcherRule1(b *testing.B) {
	rule, err := ParseRule(trimLead(yatl.Rule1Source))
	if err != nil {
		b.Fatal(err)
	}
	m := &engine.Matcher{}
	plan := engine.CompilePattern(rule.Body[0].Tree)
	store := workload.BrochureStore(1, 8, 8, 1)
	input, _ := store.Get(PlainName("b1"))
	var bs []engine.Binding
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bs = m.Match(bs[:0], plan, input); len(bs) == 0 {
			b.Fatal("no match")
		}
	}
}

func trimLead(s string) string {
	for len(s) > 0 && (s[0] == '\n' || s[0] == ' ') {
		s = s[1:]
	}
	return s
}

// Ablation: a cached conformance answer (the matcher's checker) vs a
// fresh check per call (the one-shot pattern.Conforms, which walks the
// car and the suppliers it references every time).
func BenchmarkConformanceCachedVsUncached(b *testing.B) {
	store := workload.ODMGStore(50, 25, 3, 9)
	model := CarSchemaModel()
	c1, _ := store.Get(PlainName("c1"))
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !Conforms(c1, store, model, "Pcar") {
				b.Fatal("should conform")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		checker := pattern.NewConformanceChecker(store, model)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !checker.Conforms(c1, "Pcar") {
				b.Fatal("should conform")
			}
		}
	})
}

// Ablation: Skolem identity keying — canonical Name.Key encoding cost
// for plain, atom-argument and subtree-argument identities.
func BenchmarkSkolemKeying(b *testing.B) {
	subtree := workload.MatrixTree(4, 4)
	names := []Name{
		PlainName("s1"),
		SkolemName("Psup", tree.String("VW center")),
		SkolemName("HtmlElement", tree.TreeVal{Root: subtree}),
	}
	labels := []string{"plain", "atom-arg", "subtree-arg"}
	for i, n := range names {
		b.Run(labels[i], func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if n.Key() == "" {
					b.Fatal("empty key")
				}
			}
		})
	}
}

// Composition setup cost (one-time, amortized over runs).
func BenchmarkComposeSetup(b *testing.B) {
	first := mustProg(b, Rules1And2Typed)
	second := mustProg(b, WebRules)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComposePrograms(first, second); err != nil {
			b.Fatal(err)
		}
	}
}

// SGML import path: parse + validate + convert.
func BenchmarkSGMLImport(b *testing.B) {
	docs := workload.BrochureDocs(50, 3, 20, 13)
	opts := &SGMLOptions{InferTypes: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ImportSGML(docs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// compose.Combine is cheap; included to round out §4 coverage.
func BenchmarkCombine(b *testing.B) {
	web := mustProg(b, WebRules)
	sgml := mustProg(b, Rules1And2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := compose.Combine("all", web, sgml); len(p.Rules) != 8 {
			b.Fatal("combine lost rules")
		}
	}
}

// Mediator query over the virtual target (extension S19): first query
// pays the materialization, later queries are matching only.
func BenchmarkMediatorQuery(b *testing.B) {
	prog := mustProg(b, Rules1And2)
	inputs := workload.BrochureStore(50, 3, 20, 21)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMediator(prog, inputs, nil)
			if _, err := m.Ask(`class -> supplier < -> name -> N, -> city -> C, -> zip -> Z >`, "Psup"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		m := NewMediator(prog, inputs, nil)
		if _, err := m.Ask(`X`); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Ask(`class -> supplier < -> name -> N, -> city -> C, -> zip -> Z >`, "Psup"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRunAllocs pins the allocations per run of the engine — Rule 1
// over 100 brochures, the Web program over 25 cars and over the
// convert_batch objects (≈ 790, 920 and 1 450; ≈ 990 and 1 570 while a
// matched reference was boxed again, ≈ 1 350, 1 620 and 2 610 while
// every external call made its argument slice and every placeholder and
// atom activation its node) — and of one whole convert_batch
// conversion, imports and HTML export included (≈ 3 620, what
// BenchmarkConvertBatch reports; ≈ 3 740 while a matched reference was
// boxed again, ≈ 5 360 before, and ≈ 7 860 while
// the SGML import built a document tree first and the HTML export
// minted a string per anchor). Under -race, whose sync.Pool drops match
// stacks and run scratch, the runs read ≈ 3 560, 1 840, 2 940 and
// 8 090 at most. Each ceiling sits about 10 % above its count. The
// stores are the benchmarks'.
func TestRunAllocs(t *testing.T) {
	rule1, err := ParseProgram("program p\n" + yatl.Rule1Source)
	if err != nil {
		t.Fatal(err)
	}
	web, err := ParseProgram(WebRules)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prog *Program, store *Store) func() {
		return func() {
			if _, err := Run(prog, store, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	progs := convertBatchPrograms(t)
	docs, db := workload.ConvertBatchSources(42)
	for _, tc := range []struct {
		name         string
		run          func()
		budget, race float64
	}{
		{"Rule1/brochures=100", run(rule1, workload.BrochureStore(100, 3, 20, 42)), 870, 3920},
		{"WebProgram/cars=25", run(web, workload.ODMGStore(25, 13, 3, 11)), 1020, 2030},
		// The typed run of the Figure 1 pipeline: the Web program checks
		// Pclass and Ptype against the ODMG objects that Rules 1+2 and
		// Rule 3 make of the convert_batch inputs.
		{"WebProgram/convert_batch", run(web, convertBatchObjects(t)), 1600, 3240},
		// The whole pipeline pins the wrappers' blocks as well.
		{"Pipeline/convert_batch", func() { convertBatch(t, progs, docs, db) }, 3990, 8900},
	} {
		budget := tc.budget
		if raceEnabled {
			budget = tc.race
		}
		got := testing.AllocsPerRun(5, tc.run)
		if got > budget {
			t.Errorf("%s: a run allocates %.0f times, want <= %.0f", tc.name, got, budget)
		}
		t.Logf("%s: %.0f allocations", tc.name, got)
	}
}

// BenchmarkConvertBatch is one conversion of the benchmark's
// convert_batch pipeline (examples/cardealer's Figure 1 pipeline): SGML
// and relational import, Rules 1+2 and Rule 3 into ODMG objects, the
// Web program into pages, and the HTML export, over
// workload.ConvertBatchSources(42). It is the engine's before/after at
// -cpu 1.
func BenchmarkConvertBatch(b *testing.B) {
	docs, db := workload.ConvertBatchSources(42)
	progs := convertBatchPrograms(b)
	var pages int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pages = len(convertBatch(b, progs, docs, db))
	}
	b.ReportMetric(float64(pages), "pages")
}

// BenchmarkConvertStages times the engine stages of one convert_batch
// conversion apart, over inputs imported once: /objects runs Rules 1+2
// and Rule 3 over the imported documents and database, /web the Web
// program over the objects they make. With BenchmarkConvertBatch it
// tells an engine change from a wrapper one.
func BenchmarkConvertStages(b *testing.B) {
	docs, db := workload.ConvertBatchSources(42)
	progs := convertBatchPrograms(b)
	inputs, err := ImportSGML(docs, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ImportRelational(db).Entries() {
		inputs.Put(e.Name, e.Tree)
	}
	objects := convertBatchObjects(b)
	for _, stage := range []struct {
		name  string
		progs []*Program
		in    *Store
	}{
		{"objects", progs[:2], inputs},
		{"web", progs[2:], objects},
	} {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, prog := range stage.progs {
					if _, err := Run(prog, stage.in); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestConvertBatchBytes bounds the bytes one conversion of the
// convert_batch pipeline allocates, what BenchmarkConvertBatch reports
// as B/op. With every run building its working memory afresh it came to
// 1.58 MB; with the runs' scratch pooled, 0.75 MB; with the wrappers
// converting in one pass, about 0.68 MB; with stores sized up front,
// about 0.66 MB; with calls' arguments, placeholders and atom leaves
// kept in the scratch, 0.57 MB at GOMAXPROCS 1 and up to 0.65 MB at 4
// or 8, where collections empty the pool more often. The ceiling sits
// about 10 % above the highest.
func TestConvertBatchBytes(t *testing.T) {
	docs, db := workload.ConvertBatchSources(42)
	progs := convertBatchPrograms(t)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			convertBatch(b, progs, docs, db)
		}
	})
	ceiling := int64(710_000)
	if raceEnabled {
		ceiling = 1_400_000 // ≈ 1.27 MB: its sync.Pool drops run scratch
	}
	if got := r.AllocedBytesPerOp(); r.N == 0 || got > ceiling {
		t.Errorf("%d bytes allocated per conversion over %d conversions, want <= %d", got, r.N, ceiling)
	}
	t.Logf("%d bytes, %d allocations per conversion over %d conversions", r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
}

// convertBatchPrograms are the convert_batch pipeline's programs: Rules
// 1+2, Rule 3 and the Web program.
func convertBatchPrograms(t testing.TB) []*Program {
	t.Helper()
	var progs []*Program
	for _, src := range []string{Rules1And2, "program join\n" + yatl.Rule3Source, WebRules} {
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// convertBatch runs the convert_batch pipeline once and returns its
// HTML pages.
func convertBatch(t testing.TB, progs []*Program, docs map[string]string, db *relational.Database) map[string]string {
	t.Helper()
	objects := convertToObjects(t, progs[:2], docs, db)
	res, err := Run(progs[2], objects, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := ExportHTML(res.Outputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// convertToObjects imports the documents and the database into one
// store and returns the objects the programs make of it.
func convertToObjects(t testing.TB, progs []*Program, docs map[string]string, db *relational.Database) *Store {
	t.Helper()
	inputs, err := ImportSGML(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ImportRelational(db).Entries() {
		inputs.Put(e.Name, e.Tree)
	}
	objects := NewStore()
	for _, prog := range progs {
		res, err := Run(prog, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Outputs.Entries() {
			objects.Put(e.Name, e.Tree)
		}
	}
	return objects
}

// convertBatchObjects is what the first stage of the convert_batch
// pipeline hands the Web program: the objects Rules 1+2 and Rule 3 make
// of workload.ConvertBatchSources(42).
func convertBatchObjects(t testing.TB) *Store {
	t.Helper()
	docs, db := workload.ConvertBatchSources(42)
	return convertToObjects(t, convertBatchPrograms(t)[:2], docs, db)
}

// TestSelectiveAskCacheHitAllocs pins the demand-mode cache-hit ask to
// at most 2 allocations: the pattern must come from the parse cache,
// the repeat of an identical ask must serve from the answer memo (one
// allocation — the defensive copy of the memoized slice), and a
// no-match repeat must build nothing at all.
func TestSelectiveAskCacheHitAllocs(t *testing.T) {
	prog, err := ParseProgram(workload.SelectiveProgram(8))
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.BrochureStore(60, 3, 20, 7)
	m := NewMediator(prog, inputs, WithDemandDriven(true))
	for _, tc := range []struct {
		name    string
		pattern string
		budget  float64
	}{
		{"match", `view < -> name -> N, -> city -> C, -> zip -> Z >`, 2},
		{"nomatch", `nosuchroot < -> name -> N >`, 0},
	} {
		if _, err := m.Ask(tc.pattern, "Pview1"); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := m.Ask(tc.pattern, "Pview1"); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: demand cache-hit ask allocates %.1f times per op, want <= %.0f", tc.name, got, tc.budget)
		}
	}
}
