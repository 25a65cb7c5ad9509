package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The tests run in bench/; the program runs from the repository root.
func TestMain(m *testing.M) {
	if err := declare(filepath.Join("..", declarationFile)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	// With samples 1..n the expected value is the 1-indexed rank
	// ceil(n·p/100).
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 50, 1}, {2, 50, 1}, {2, 51, 2}, {4, 50, 2}, {5, 50, 3},
		{10, 90, 9}, {11, 95, 11}, {51, 99, 51}, {100, 99, 99}, {100, 100, 100},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %g, want 0", got)
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := beyond(100, 99); got != 1 {
		t.Errorf("beyond(100, 99) = %d, want 1", got)
	}
}

func TestMedianOfSlices(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}

	// One-second slices: slice i completes 10·(i+1) operations, all with
	// latency i+1 ms, except one 100 ms outlier in slice 0.
	window := numSlices * time.Second
	var ops []op
	var wantRate, wantP50 []float64
	for i := 0; i < numSlices; i++ {
		for j := 0; j < 10*(i+1); j++ {
			ops = append(ops, op{done: time.Duration(i)*time.Second + time.Duration(j)*time.Millisecond, ms: float64(i + 1)})
		}
		wantRate = append(wantRate, float64(10*(i+1)))
		wantP50 = append(wantP50, float64(i+1))
	}
	ops[0].ms = 100
	// Completing after the window's end still counts, in the last slice.
	ops = append(ops, op{done: window + time.Second, ms: numSlices})
	wantRate[numSlices-1]++
	// Reference rounds: 2 ms in the even slices, 4 ms in the odd ones,
	// and none in the last.
	var refs []op
	var wantRef []float64
	for i := 0; i < numSlices-1; i++ {
		ms := float64(2 + 2*(i%2))
		refs = append(refs, op{done: time.Duration(i) * time.Second, ms: ms}, op{done: time.Duration(i)*time.Second + 1, ms: ms},
			op{done: time.Duration(i)*time.Second + 2, ms: 50})
		wantRef = append(wantRef, ms)
	}
	wantRef = append(wantRef, 0)
	s := sliceWindow(ops, refs, window, 90)
	if !reflect.DeepEqual(s.ref, wantRef) {
		t.Errorf("per-slice reference = %v, want %v", s.ref, wantRef)
	}
	// In reference units slice i's latency is (i+1)/ref; the slice
	// without a reference round is left out.
	var wantP50Ref []float64
	for i := 0; i < numSlices-1; i++ {
		wantP50Ref = append(wantP50Ref, wantP50[i]/wantRef[i])
	}
	if got := perRef(s.p50, s.ref, func(v, ref float64) float64 { return v / ref }); !reflect.DeepEqual(got, wantP50Ref) {
		t.Errorf("latency per reference = %v, want %v", got, wantP50Ref)
	}
	if !reflect.DeepEqual(s.rate, wantRate) {
		t.Errorf("per-slice rate = %v, want %v", s.rate, wantRate)
	}
	if !reflect.DeepEqual(s.p50, wantP50) {
		t.Errorf("per-slice p50 = %v, want %v", s.p50, wantP50)
	}
	if s.tail[0] != 1 { // p90 of ten samples is the 9th; the outlier is the 10th
		t.Errorf("slice 0 p90 = %g, want 1", s.tail[0])
	}
	if got, want := median(s.rate), median(wantRate); got != want {
		t.Errorf("median-of-slices rate = %g, want %g", got, want)
	}
	if !s.thin {
		t.Error("slices with one sample beyond p90 must be marked thin")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},     // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0},    // clipped to the parent: 90..100
		{Name: "inner", Start: 15, End: 20, Parent: 1}, // nested: a grandchild is a's business
		{Name: "orphan", Start: 0, End: 7, Parent: 99},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, every: 200 * time.Millisecond}
	if got := s.due(3); !got.Equal(t0.Add(600 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	// Refresh 2 was due at 400 ms but refresh 1 stalled until 450 ms:
	// it is sent 50 ms late and, finishing at 480 ms, took 80 ms from
	// its due time — not the 30 ms it spent on the wire.
	sent, done := t0.Add(450*time.Millisecond), t0.Add(480*time.Millisecond)
	if got := s.lateness(2, sent); got != 50*time.Millisecond {
		t.Errorf("lateness = %v, want 50ms", got)
	}
	if got := s.sinceDue(2, done); got != 80*time.Millisecond {
		t.Errorf("sinceDue = %v, want 80ms", got)
	}
	if got := s.lateness(2, t0.Add(399*time.Millisecond)); got != 0 {
		t.Errorf("an early wake-up is not negative lateness, got %v", got)
	}
}

func TestKeyGenerators(t *testing.T) {
	draw := func(sv *served, seed uint64, client int) []int {
		next := sv.picker(seed, client)
		out := make([]int, 64)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	lookup, err := newLookup(7)
	if err != nil {
		t.Fatal(err)
	}
	// The keyspace must dwarf the 512 asks a lane's memo admits.
	distinct := map[string]bool{}
	for _, rq := range lookup.requests {
		distinct[string(rq.body)] = true
	}
	if len(distinct) != lookupSuppliers*viewFunctors || len(distinct) < 4*512 {
		t.Errorf("serve_lookup has %d distinct asks, want %d (≫ 512)", len(distinct), lookupSuppliers*viewFunctors)
	}
	hits := 0
	for _, rq := range lookup.requests {
		hits += rq.wantCount
	}
	if hits == 0 || hits == len(lookup.requests) {
		t.Errorf("serve_lookup expects %d of %d asks to find a supplier; want some but not all", hits, len(lookup.requests))
	}
	warm, err := newViews(7, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, sv := range map[string]*served{"serve_lookup": lookup, "serve_warm": warm} {
		if !reflect.DeepEqual(draw(sv, 7, 0), draw(sv, 7, 0)) {
			t.Errorf("%s: same seed and client must draw the same keys", name)
		}
		if reflect.DeepEqual(draw(sv, 7, 0), draw(sv, 8, 0)) {
			t.Errorf("%s: another seed must draw other keys", name)
		}
		if reflect.DeepEqual(draw(sv, 7, 0), draw(sv, 7, 1)) {
			t.Errorf("%s: the two clients must not draw in lockstep", name)
		}
	}
	seen := map[int]bool{}
	for _, i := range draw(warm, 7, 0)[:viewFunctors] {
		seen[i] = true
	}
	if len(seen) != viewFunctors {
		t.Errorf("serve_warm rotation visited %d of %d views in one round", len(seen), viewFunctors)
	}
}

// Wrapped lanes must keep the admin endpoints serve discovers by type
// assertion: a refresh through a traced pool succeeds and is recorded.
func TestTracedLanesKeepAdminEndpoints(t *testing.T) {
	sv, err := newChurn(1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := newRecorder()
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := sv.setup(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	rec.measureFrom(time.Now())
	c := newClient(sys.url, rec)
	defer c.close()
	sys.fault.SetStore(sv.churn.storeFor(0))
	_, ref, err := c.post("client.refresh", "/admin/refresh-source/"+sourceName, nil)
	c.rec.end(ref.id)
	if err != nil {
		t.Fatalf("refresh through wrapped lanes: %v", err)
	}
	resp, err := http.Post(sys.url+"/admin/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented { // no snapshot dir configured, but routed
		t.Errorf("snapshot endpoint answered %d, want 501 snapshot_unconfigured", resp.StatusCode)
	}
	spans, counters := rec.snapshot()
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	if names["serve.refresh"] != 1 || names["mediator.refresh"] != poolLanes || names["source.fetch"] != poolLanes {
		t.Errorf("refresh recorded spans %v, want 1 serve.refresh, %d mediator.refresh, %d source.fetch", names, poolLanes, poolLanes)
	}
	if counters["source.fetches"] != poolLanes {
		t.Errorf("source.fetches = %d, want %d", counters["source.fetches"], poolLanes)
	}
}

// TestDeclaration holds BENCHMARK.json to what the program and the
// issue rely on: the command and directory, a set-up metric, and time
// bounds no wider than the issue's ceiling of a fifth (set-up: a
// quarter).
func TestDeclaration(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", declarationFile))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(d.Command, want) {
		t.Errorf("command = %v, want %v", d.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(d.Paths, want) {
		t.Errorf("paths = %v, want %v", d.Paths, want)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", d.RunSeconds)
	}
	hasSetup := false
	for _, m := range endToEnd {
		limit := 0.20
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %g outside (0, %g]", m.Name, m.Bound, limit)
		}
	}
	if !hasSetup {
		t.Error("end_to_end must include setup_s in s, lower is better")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload end to end and traced with 0.3 s
// windows and the oracle on, and checks that each run reports exactly
// the declared names once, with nothing failed.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		// Side by side: only names, units and oracles are checked here,
		// never a time.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				smokeRun(t, w.Name, trace, dir)
			}
		})
	}
}

func smokeRun(t *testing.T, workload string, trace bool, dir string) {
	cfg := runConfig{workload: workload, seed: 42, seconds: 0.3, warmup: 100 * time.Millisecond,
		trace: trace, setups: 1, reps: 1, outDir: dir}
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("trace=%v: %v", trace, err)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("trace=%v: %d metrics reported, %d declared", trace, len(rep.Metrics), len(want))
	}
	for _, def := range want {
		m, ok := rep.Metrics[def.Name]
		if !ok {
			t.Errorf("trace=%v: declared metric %s missing", trace, def.Name)
		} else if m.Unit != def.Unit {
			t.Errorf("trace=%v: %s in %q, declared %q", trace, def.Name, m.Unit, def.Unit)
		}
		// A 0.3 s window under the race detector can leave the median
		// slice empty, so only the sample count is held above 0 here.
		if !trace && m.N == 0 {
			t.Errorf("end-to-end metric %s has no samples", def.Name)
		}
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
	}
	if !trace {
		return
	}
	if _, err := os.Stat(cfg.outPath(".trace.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	val := func(name string) float64 { return rep.Metrics[name].Value }
	switch workload {
	case "serve_warm", "serve_lookup":
		if val("mediator.slice_runs") != 0 || val("mediator.asks") == 0 {
			t.Errorf("steady state ran %g slices over %g asks, want 0 slices",
				val("mediator.slice_runs"), val("mediator.asks"))
		}
		if val("serve.warm_start_ms") == 0 || val("serve.handler_self_share") <= 0 || val("serve.handler_self_share") >= 1 {
			t.Errorf("warm start %g ms, handler self share %g",
				val("serve.warm_start_ms"), val("serve.handler_self_share"))
		}
	case "serve_churn":
		if val("mediator.delta_runs")+val("mediator.delta_fallbacks") == 0 || val("source.fetches") == 0 {
			t.Errorf("no refresh absorbed in the window")
		}
	case "serve_federated":
		if val("federate.fanout_per_ask") != 2 || val("federate.child_failures") != 0 {
			t.Errorf("fan-out %g, child failures %g; want 2, 0",
				val("federate.fanout_per_ask"), val("federate.child_failures"))
		}
	case "convert_batch":
		if val("engine.outputs") == 0 || val("engine.match_ms") == 0 {
			t.Errorf("engine counts missing")
		}
	}
}

func TestCompare(t *testing.T) {
	// Every metric reads 1 on every workload, but for what edit changes.
	mk := func(failed int, edit func(metricSet)) *document {
		doc := &document{Workloads: map[string]*combined{}}
		for _, w := range workloads {
			m := newMetricSet(endToEnd)
			for _, def := range endToEnd {
				m.set(def.Name, 1, 1)
			}
			if edit != nil {
				edit(m)
			}
			doc.Workloads[w.Name] = &combined{
				EndToEnd: &report{Workload: w.Name, Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m},
				Layers:   &report{Workload: w.Name, Correct: true, Attempted: 10, Metrics: newMetricSet(perLayer)},
			}
		}
		return doc
	}
	set := func(name string, v float64) func(metricSet) {
		return func(m metricSet) { m.set(name, v, 1) }
	}
	bound := map[string]float64{}
	for _, def := range endToEnd {
		bound[def.Name] = def.Bound
	}
	same := mk(0, nil)
	slowSetup := mk(0, set("setup_s", 0.1))
	for _, c := range []struct {
		name string
		a, b *document
		ok   bool
	}{
		{"same", same, mk(0, nil), true},
		{"within", same, mk(0, set("op_p50_ref", 1+bound["op_p50_ref"]*0.9)), true},
		{"better", same, mk(0, set("op_p50_ref", 0.5)), true},
		{"worse", same, mk(0, set("op_p50_ref", 1+bound["op_p50_ref"]*1.1)), false},
		{"worse reversed is better", mk(0, set("op_p50_ref", 1+bound["op_p50_ref"]*1.1)), same, true},
		{"fewer ops", same, mk(0, set("ops_per_kref", 1-bound["ops_per_kref"]*1.1)), false},
		{"more ops", same, mk(0, set("ops_per_kref", 2)), true},
		{"failed", same, mk(1, nil), false},
		{"setup a third slower and 0.5 s", same, mk(0, set("setup_s", 1.5)), false},
		{"setup a third slower but 0.03 s", slowSetup, mk(0, set("setup_s", 0.13)), true},
		{"metric reads 0", same, mk(0, set("retained_heap_mb", 0)), false},
		{"metric absent", same, mk(0, func(m metricSet) { delete(m, "ops_per_kref") }), false},
		{"metric absent from the baseline", mk(0, func(m metricSet) { delete(m, "ops_per_kref") }), same, false},
	} {
		dir := t.TempDir()
		pathA, pathB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
		if err := writeJSON(pathA, c.a); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(pathB, c.b); err != nil {
			t.Fatal(err)
		}
		var table strings.Builder
		ok, err := compareFiles(pathA, pathB, &table)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("compare %s: ok=%v, want %v\n%s", c.name, ok, c.ok, table.String())
		}
	}
}

// A child that dies before it writes its report must fail the set of
// runs, even when an earlier run's report is still lying there; a child
// that exits non-zero over failed operations is read, not dropped.
func TestRunChildIgnoresStaleReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.e2e.json")
	stale := &report{Workload: "w", Correct: true, Attempted: 7}
	if err := writeJSON(path, stale); err != nil {
		t.Fatal(err)
	}
	if rep, err := runChild(exec.Command("sh", "-c", "exit 1"), path); err == nil {
		t.Errorf("a child that wrote nothing was read as %+v", rep)
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("the stale report survived the run")
	}

	wrote := `{"workload":"w","correct":false,"attempted":9,"failed":2}`
	rep, err := runChild(exec.Command("sh", "-c", "echo '"+wrote+"' > "+path+"; exit 1"), path)
	if err != nil || rep.Attempted != 9 || rep.Failed != 2 || rep.Correct {
		t.Errorf("a failed run's own report: %+v, %v", rep, err)
	}
	lied := `{"workload":"w","correct":true,"attempted":9}`
	if _, err := runChild(exec.Command("sh", "-c", "echo '"+lied+"' > "+path+"; exit 3"), path); err == nil {
		t.Error("a child that reported a correct run and then failed was accepted")
	}
	if rep, err := runChild(exec.Command("sh", "-c", "echo '"+lied+"' > "+path), path); err != nil || rep.Attempted != 9 {
		t.Errorf("a clean run: %+v, %v", rep, err)
	}
}
