package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured window
	warmup   time.Duration
	trace    bool
	// setups is how many times the system is set up from scratch; the
	// run reports the median set-up time and measures the last system.
	// reps scales the traced run's calibration loops. The smoke test
	// lowers both.
	setups int
	reps   int
	outDir string
}

func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c runConfig) outPath(suffix string) string {
	return filepath.Join(c.outDir, c.workload+suffix)
}

// tailP is the workload's tail percentile: p99 where a slice holds
// thousands of asks, p90 where it holds a hundred-odd conversions.
func (c runConfig) tailP() float64 {
	if c.workload == "convert_batch" {
		return 90
	}
	return 99
}

// runWorkload generates the workload's inputs from the seed, computes
// its oracle, and measures it: end to end with tracing off, or layer
// by layer in a traced run.
func runWorkload(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	genStart := time.Now()
	var (
		sv  *served
		err error
	)
	switch cfg.workload {
	case "serve_warm":
		sv, err = newViews(cfg.seed, false)
	case "serve_lookup":
		sv, err = newLookup(cfg.seed)
	case "serve_churn":
		sv, err = newChurn(cfg.seed)
	case "serve_federated":
		sv, err = newViews(cfg.seed, true)
	case "convert_batch":
		return runConvert(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	generated := time.Since(genStart)
	if cfg.trace {
		return servedLayers(sv, cfg, generated)
	}
	return servedEndToEnd(sv, cfg)
}

// endToEndReport reduces one untraced window to the end-to-end
// metrics: throughput and median latency slice by slice in units of
// the slice's reference round, then the median over slices.
func endToEndReport(cfg runConfig, res loadResult, setups []float64, retainedMiB float64) *report {
	m := newMetricSet(endToEnd)
	s := sliceWindow(res.asks, res.refs, cfg.window(), cfg.tailP())
	// ops/s × ms per round = ops per 1000 rounds' worth of time.
	perKref := perRef(s.rate, s.ref, func(rate, ref float64) float64 { return rate * ref })
	p50Ref := perRef(s.p50, s.ref, func(p50, ref float64) float64 { return p50 / ref })
	for name, slices := range map[string][]float64{"ops_per_kref": perKref, "op_p50_ref": p50Ref} {
		m[name] = metric{Value: median(slices), Unit: m[name].Unit, N: s.n, Slices: slices}
	}
	m.set("retained_heap_mb", retainedMiB, 1)
	m.set("setup_s", median(setups), len(setups))
	return newReport(cfg, m, res.attempted, res.failed)
}

func newReport(cfg runConfig, m metricSet, attempted, failed int) *report {
	return &report{Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

func servedEndToEnd(sv *served, cfg runConfig) (rep *report, err error) {
	var (
		sys    *system
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if sys, took, err = sv.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { err = errors.Join(err, sys.close()) }()
	res, err := sv.load(sys, nil, cfg.seed, cfg.warmup, cfg.window())
	if err != nil {
		return nil, err
	}
	if sv.churn != nil {
		sv.checkFinal(sys.url, &res)
	}
	// Measured while the servers are still up, so their caches count.
	return endToEndReport(cfg, res, setups, retainedHeapMiB()), nil
}

func runConvert(cfg runConfig) (*report, error) {
	genStart := time.Now()
	in := newConvertInputs(cfg.seed)
	generated := time.Since(genStart)
	want, wantPages, err := convertOracle(in)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return convertLayers(in, want, wantPages, cfg, generated)
	}
	var (
		c      *converter
		setups []float64
	)
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		if c, err = newConverter(); err != nil {
			return nil, err
		}
		first, err := c.convert(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if first.digest() != want {
			return nil, errors.New("first conversion differs from the unoptimized run")
		}
	}
	res, err := convertLoop(c, in, want, wantPages, cfg.warmup, cfg.window(), nil)
	if err != nil {
		return nil, err
	}
	retained := retainedHeapMiB()
	runtime.KeepAlive(c)
	runtime.KeepAlive(in)
	return endToEndReport(cfg, res, setups, retained), nil
}
