package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline's median by which an end-to-end metric may
// worsen before it counts as a regression (per-layer metrics have
// none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// The workloads and metrics, named in one place: BENCHMARK.json, read
// by declare before anything runs. One operation is one successful ask
// (serve_*) or one conversion (convert_batch); README.md says what each
// metric is and which layer should move it. A per-layer metric whose
// layer a workload does not exercise reads 0 there.
var (
	workloads []workloadDef
	endToEnd  []metricDef // measured with tracing off
	perLayer  []metricDef // from the traced run, prefix = module
)

// declare reads the declaration file into workloads, endToEnd and
// perLayer.
func declare(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return fmt.Errorf("%s: declares no workloads, end_to_end or per_layer metrics", path)
	}
	workloads, endToEnd, perLayer = d.Workloads, d.EndToEnd, d.PerLayer
	return nil
}

// metric is one reported value. N is the number of samples behind it
// and Slices the per-slice raw values of an end-to-end metric; Thin
// marks a tail percentile with fewer than ten samples beyond it in
// some slice.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
	Thin   bool      `json:"thin,omitempty"`
}

// metricSet collects values against a declared list, so a name that
// is not declared cannot be reported and a declared one cannot be
// forgotten: it starts at 0 in its declared unit.
type metricSet map[string]metric

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = metric{Unit: d.Unit}
	}
	return m
}

func (m metricSet) set(name string, value float64, n int) {
	cur, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	cur.Value, cur.N = value, n
	m[name] = cur
}

// setP sets a metric to the nearest-rank p-quantile of its samples.
func (m metricSet) setP(name string, samples []float64, p float64) {
	m.set(name, percentile(sorted(samples), p), len(samples))
}

// report is everything one run of one workload produced.
type report struct {
	Workload  string    `json:"workload"`
	Trace     bool      `json:"trace"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// environment is recorded with every combined document, so two sets
// of runs can be told apart before they are compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment(commit string) environment {
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
}

// retainedHeapMiB is the heap still reachable after a full collection:
// what the system under test (and the benchmark's own bookkeeping)
// holds on to, without the garbage a collection cycle happens to
// leave behind.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // a sync.Pool's victim cache survives one collection
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
