package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"yat"
	"yat/internal/delta"
	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/serve"
	"yat/internal/serve/wire"
	"yat/internal/snapshot"
	"yat/internal/trace"
	"yat/internal/yatl"
)

// spanStats groups the measured window's spans by name: durations and
// self times in milliseconds, in recording order.
type spanStats struct {
	dur, self map[string][]float64
}

func newSpanStats(spans []span, cut int64) spanStats {
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Start < cut {
			continue
		}
		st.dur[s.Name] = append(st.dur[s.Name], s.ms())
		st.self[s.Name] = append(st.self[s.Name], float64(self[i])/1e6)
	}
	return st
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeReps runs fn reps times and returns each run's milliseconds.
func timeReps(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/1e6)
	}
	return out, nil
}

// perCall runs fn n times and returns the mean microseconds, heap
// allocations and heap bytes of one call.
func perCall(n int, fn func() error) (us, allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(took) / 1e3 / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n), nil
}

// fetchStats reads the pool-wide mediator counters the server exposes.
func fetchStats(url string) (mediator.StatsView, error) {
	resp, err := http.Get(url + "/stats?timing=0")
	if err != nil {
		return mediator.StatsView{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return mediator.StatsView{}, err
	}
	var out wire.StatsResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return mediator.StatsView{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return out.Mediator, nil
}

// servedLayers is the traced run of a serve_* workload: a short
// untraced window on a bare system for reference, then a traced window
// on a system with the span decorators installed, then calibration of
// the layers no span reaches.
func servedLayers(sv *served, cfg runConfig, generated time.Duration) (rep *report, err error) {
	m := newMetricSet(perLayer)
	m.set("workload.generate_ms", float64(generated)/1e6, 1)

	bare, _, err := sv.setup(nil)
	if err != nil {
		return nil, err
	}
	bareRes, err := sv.load(bare, nil, cfg.seed, cfg.warmup, cfg.window()/4)
	if err = errors.Join(err, bare.close()); err != nil {
		return nil, err
	}

	rec, err := newRecorder()
	if err != nil {
		return nil, err
	}
	sys, _, err := sv.setup(rec)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sys.close()) }()
	// The counters' window opens where the spans' does: as the warm-up
	// ends.
	var (
		before    mediator.StatsView
		beforeErr error
		fetched   = make(chan struct{})
	)
	time.AfterFunc(cfg.warmup, func() {
		before, beforeErr = fetchStats(sys.url)
		close(fetched)
	})
	res, loadErr := sv.load(sys, rec, cfg.seed, cfg.warmup, cfg.window()*3/4)
	<-fetched
	after, err := fetchStats(sys.url)
	if err = errors.Join(loadErr, beforeErr, err); err != nil {
		return nil, err
	}
	if sv.churn != nil {
		sv.checkFinal(sys.url, &res)
	}
	if err := rec.write(cfg.outPath(".trace.json")); err != nil {
		return nil, err
	}

	st := newSpanStats(res.spans, rec.cut.Load())
	spanMetrics(m, st, res)
	statsMetrics(m, before, after)
	if err := calibrateServed(m, sv, sys.url, cfg); err != nil {
		return nil, err
	}
	return tracedReport(cfg, m, bareRes, res), nil
}

func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.ms
	}
	return out
}

// tracedReport finishes a traced run's report with what the untraced
// quarter of the window measured in plain units — throughput, median
// and tail latency, the reference round — the tracing overhead (the
// traced window's median latency over the untraced one's), the
// process's peak memory, and the two windows' totals.
func tracedReport(cfg runConfig, m metricSet, bare, res loadResult) *report {
	s := sliceWindow(bare.asks, bare.refs, cfg.window()/4, cfg.tailP())
	for name, slices := range map[string][]float64{"ops_per_s": s.rate, "op_p50_ms": s.p50, "op_tail_ms": s.tail} {
		m[name] = metric{Value: median(slices), Unit: m[name].Unit, N: s.n, Slices: slices,
			Thin: s.thin && name == "op_tail_ms"}
	}
	m.set("host.ref_us_p50", 1e3*median(s.ref), len(bare.refs))
	if untraced := percentile(sorted(latencies(bare.asks)), 50); untraced > 0 {
		m.set("trace.overhead_ratio", percentile(sorted(latencies(res.asks)), 50)/untraced, len(bare.asks))
	}
	m.set("peak_rss_mb", peakRSSMiB(), 1)
	return newReport(cfg, m, bare.attempted+res.attempted, bare.failed+res.failed)
}

// spanMetrics fills everything that comes straight from the traced
// window: span percentiles, self times, and the client's own samples.
func spanMetrics(m metricSet, st spanStats, res loadResult) {
	m.setP("client.ask_ms_p50", st.dur["client.ask"], 50)
	decodeUS := make([]float64, len(st.dur["client.decode"]))
	for i, ms := range st.dur["client.decode"] {
		decodeUS[i] = ms * 1e3
	}
	m.setP("client.decode_us_p50", decodeUS, 50)
	// A client span's children are the handler span and the decode
	// span, so its self time is what the round trip itself cost.
	m.setP("net.roundtrip_self_ms_p50", st.self["client.ask"], 50)
	m.setP("client.refresh_late_ms_p50", res.lateMS, 50)
	m.setP("refresh_p50_ms", latencies(res.refreshes), 50)

	m.setP("serve.handler_ms_p50", st.dur["serve.handler"], 50)
	m.setP("serve.handler_ms_p99", st.dur["serve.handler"], 99)
	m.setP("serve.handler_self_ms_p50", st.self["serve.handler"], 50)
	if total := sum(st.dur["client.ask"]); total > 0 {
		m.set("serve.handler_self_share", sum(st.self["serve.handler"])/total, len(st.self["serve.handler"]))
	}
	m.setP("serve.refresh_ms_p50", st.dur["serve.refresh"], 50)
	m.setP("serve.refresh_ms_p90", st.dur["serve.refresh"], 90)
	m.setP("serve.child_handler_ms_p50", st.dur["serve.child_handler"], 50)

	m.setP("wire.req_bytes_p50", res.reqBytes, 50)
	m.setP("wire.resp_bytes_p50", res.respBytes, 50)

	m.setP("mediator.ask_ms_p50", st.dur["mediator.ask"], 50)
	m.setP("mediator.ask_ms_p99", st.dur["mediator.ask"], 99)
	m.setP("mediator.refresh_ms_p50", st.dur["mediator.refresh"], 50)

	m.setP("source.fetch_ms_p50", st.dur["source.fetch"], 50)
	m.set("source.fetches", float64(res.counters["source.fetches"]), 1)
	m.set("source.failures", float64(res.counters["source.failures"]), 1)

	federateMetrics(m, res.spans, st)
}

// federateMetrics derives the scatter-gather numbers: per parent ask,
// the slowest of its child asks sets the time, and what the parent
// span adds on top is merge (and guard) self time.
func federateMetrics(m metricSet, spans []span, st spanStats) {
	asks := st.dur["federate.ask"]
	if len(asks) == 0 {
		return
	}
	m.setP("federate.ask_ms_p50", asks, 50)
	m.setP("federate.child_ask_ms_p50", st.dur["federate.child_ask"], 50)
	slowestOf := map[int]float64{}
	for _, s := range spans {
		if s.Name == "federate.child_ask" && s.ms() > slowestOf[s.Parent] {
			slowestOf[s.Parent] = s.ms()
		}
	}
	var slowest, merge []float64
	for parent, ms := range slowestOf {
		if parent < 0 || spans[parent].Name != "federate.ask" {
			continue
		}
		slowest = append(slowest, ms)
		merge = append(merge, spans[parent].ms()-ms)
	}
	m.setP("federate.slowest_child_ms_p50", slowest, 50)
	m.setP("federate.merge_self_ms_p50", merge, 50)
	m.set("federate.fanout_per_ask", float64(len(st.dur["federate.child_ask"]))/float64(len(asks)), len(asks))
}

// statsMetrics reports the window's deltas of the mediator counters.
// Stats() cannot tell an ask-memo hit from a demand-cache hit: both
// are cache_hits.
func statsMetrics(m metricSet, before, after mediator.StatsView) {
	d := func(a, b int64) float64 { return float64(b - a) }
	hits, misses := d(before.CacheHits, after.CacheHits), d(before.CacheMisses, after.CacheMisses)
	m.set("mediator.asks", d(before.Asks, after.Asks), 1)
	m.set("mediator.cache_hits", hits, 1)
	m.set("mediator.cache_misses", misses, 1)
	if hits+misses > 0 {
		m.set("mediator.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	m.set("mediator.slice_runs", d(before.SliceRuns, after.SliceRuns), 1)
	m.set("mediator.delta_runs", d(before.DeltaRuns, after.DeltaRuns), 1)
	m.set("mediator.delta_fallbacks", d(before.DeltaFallbacks, after.DeltaFallbacks), 1)
	m.set("mediator.patched_rules", d(before.PatchedRules, after.PatchedRules), 1)
	var failures int64
	for i, sh := range after.Shards {
		failures += sh.Failures
		if i < len(before.Shards) {
			failures -= before.Shards[i].Failures
		}
	}
	m.set("federate.child_failures", float64(failures), 1)
}

// calibrateServed measures, on private instances over the workload's
// own program and data, the costs no span of the served path isolates:
// the two cache-hit paths and the cold slice of a mediator, snapshot
// write/read/restore, server cold and warm start, and the wire codec.
func calibrateServed(m metricSet, sv *served, url string, cfg runConfig) error {
	var rq wire.AskRequest
	if err := json.Unmarshal(sv.requests[0].body, &rq); err != nil {
		return err
	}
	newMediator := func() *mediator.Mediator {
		return mediator.New(sv.prog, sv.store, mediator.WithDemandDriven(true))
	}

	// Cold slice: a fresh mediator's first ask.
	var coldAllocs float64
	cold, err := timeReps(cfg.reps, func() error {
		med := newMediator()
		_, allocs, _, err := perCall(1, func() error { _, err := med.Ask(rq.Pattern, rq.Functors...); return err })
		coldAllocs = allocs
		return err
	})
	if err != nil {
		return err
	}
	m.set("mediator.cold_slice_ms", median(cold), len(cold))
	m.set("mediator.cold_slice_allocs", coldAllocs, 1)

	// Memo hit: the identical ask repeated.
	warm := newMediator()
	ask := func() error { _, err := warm.Ask(rq.Pattern, rq.Functors...); return err }
	if err := ask(); err != nil {
		return err
	}
	us, allocs, _, err := perCall(200*cfg.reps, ask)
	if err != nil {
		return err
	}
	m.set("mediator.memo_hit_us", us, 200*cfg.reps)
	m.set("mediator.memo_hit_allocs", allocs, 200*cfg.reps)
	snap, err := warm.Snapshot()
	if err != nil {
		return err
	}

	// Demand hit: the memo is keyed by parsed-pattern identity and stops
	// admitting at 512 entries, so filling it with 512 separately
	// parsed copies of the pattern leaves every later pre-parsed ask to
	// the per-rule demand cache and the matcher.
	full := newMediator()
	for i := 0; i <= 512; i++ {
		pt, err := yatl.ParsePattern(rq.Pattern)
		if err != nil {
			return err
		}
		if _, err := full.AskPattern(pt, rq.Functors...); err != nil {
			return err
		}
	}
	pt, err := yatl.ParsePattern(rq.Pattern)
	if err != nil {
		return err
	}
	us, allocs, _, err = perCall(40*cfg.reps, func() error { _, err := full.AskPattern(pt, rq.Functors...); return err })
	if err != nil {
		return err
	}
	m.set("mediator.demand_hit_us", us, 40*cfg.reps)
	m.set("mediator.demand_hit_allocs", allocs, 40*cfg.reps)

	// Snapshot write, read + verify, restore.
	restore, err := timeReps(cfg.reps, func() error { return newMediator().Restore(snap) })
	if err != nil {
		return err
	}
	m.set("mediator.restore_ms", median(restore), len(restore))
	dir := cfg.outPath(".snapshot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, serve.SnapshotFile)
	var size int
	write, err := timeReps(cfg.reps, func() error { n, err := snapshot.Write(path, snap); size = n; return err })
	if err != nil {
		return err
	}
	read, err := timeReps(cfg.reps, func() error {
		s, err := snapshot.Read(path)
		if err != nil {
			return err
		}
		return s.Verify(snapshot.HashProgram(sv.prog), snapshot.HashOptions(engine.NewOptions()))
	})
	if err != nil {
		return err
	}
	m.set("snapshot.write_ms", median(write), len(write))
	m.set("snapshot.read_ms", median(read), len(read))
	m.set("snapshot.bytes", float64(size), 1)

	// Server start to first correct answer: cold, and — for a plain
	// pool over a store, the only shape serve can restore — warm from
	// the snapshot just written.
	first := &sv.requests[sv.fill[0]]
	startToFirst := func(start func() (*system, error)) func() error {
		return func() error {
			sys, err := start()
			if err != nil {
				return err
			}
			c := newClient(sys.url, nil)
			_, err = c.ask(first, true, false)
			c.close()
			return errors.Join(err, sys.close())
		}
	}
	coldStart, err := timeReps(cfg.reps, startToFirst(func() (*system, error) { return sv.start(nil) }))
	if err != nil {
		return err
	}
	m.set("serve.cold_start_ms", median(coldStart), len(coldStart))
	if sv.restorable {
		warmStart, err := timeReps(cfg.reps, startToFirst(func() (*system, error) {
			url, stop, err := startServer(serve.Config{Prog: sv.prog, Inputs: sv.store, Pool: poolLanes, SnapshotDir: dir}, nil, "")
			return &system{url: url, stops: []func() error{stop}}, err
		}))
		if err != nil {
			return err
		}
		m.set("serve.warm_start_ms", median(warmStart), len(warmStart))
	}

	// Wire codec, offline, on one captured request and reply.
	c := newClient(url, nil)
	defer c.close()
	data, _, err := c.post("", "/ask", sv.requests[0].body)
	if err != nil {
		return err
	}
	var reply wire.AskResponse
	if err := json.Unmarshal(data, &reply); err != nil {
		return err
	}
	us, allocs, _, err = perCall(200*cfg.reps, func() error { _, err := json.Marshal(&reply); return err })
	if err != nil {
		return err
	}
	m.set("wire.encode_us_per_resp", us, 200*cfg.reps)
	m.set("wire.encode_allocs_per_resp", allocs, 200*cfg.reps)
	us, _, _, err = perCall(200*cfg.reps, func() error {
		var in wire.AskRequest
		return json.Unmarshal(sv.requests[0].body, &in)
	})
	if err != nil {
		return err
	}
	m.set("wire.decode_us_per_req", us, 200*cfg.reps)

	if sv.churn != nil {
		deltaMetrics(m, sv.churn, cfg.reps)
	}
	return nil
}

// deltaMetrics times delta.Diff on the store transitions the refreshes
// make (base → grown, grown → base, ...).
func deltaMetrics(m metricSet, ch *churn, reps int) {
	var ms []float64
	inserted, deleted := 0, 0
	from := ch.base
	for i := 0; i < 10*reps; i++ {
		to := ch.storeFor(i)
		start := time.Now()
		d := delta.Diff(from, to)
		ms = append(ms, float64(time.Since(start))/1e6)
		inserted += len(d.Inserted)
		deleted += len(d.Deleted)
		from = to
	}
	m.setP("delta.diff_ms_p50", ms, 50)
	m.set("delta.inserted_per_refresh", float64(inserted)/float64(len(ms)), len(ms))
	m.set("delta.deleted_per_refresh", float64(deleted)/float64(len(ms)), len(ms))
}

// convertLayers is the traced run of convert_batch: the same loop with
// a span around each stage, then calibration of the engine variants
// and of the layers the pipeline only touches at set-up.
func convertLayers(in convertInputs, want digest, wantPages int, cfg runConfig, generated time.Duration) (*report, error) {
	m := newMetricSet(perLayer)
	m.set("workload.generate_ms", float64(generated)/1e6, 1)

	parse, err := timeReps(cfg.reps, func() error {
		for _, src := range convertSources {
			if _, err := yat.ParseProgram(src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("yatl.parse_ms_p50", median(parse), len(parse))
	c, err := newConverter()
	if err != nil {
		return nil, err
	}
	check, err := timeReps(cfg.reps, func() error {
		for _, p := range c.progs {
			if _, err := yat.Analyze(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("analysis.check_ms_p50", median(check), len(check))
	facts, _ := timeReps(cfg.reps, func() error {
		for _, p := range c.progs {
			yat.AnalyzeProgram(p)
		}
		return nil
	})
	m.set("analysis.facts_ms_p50", median(facts), len(facts))

	// Untraced reference window, then the traced one, which needs no
	// warm-up of its own.
	bare, err := convertLoop(c, in, want, wantPages, cfg.warmup, cfg.window()/4, nil)
	if err != nil {
		return nil, err
	}
	rec, err := newRecorder()
	if err != nil {
		return nil, err
	}
	rec.measureFrom(rec.epoch)
	res, err := convertLoop(c, in, want, wantPages, 0, cfg.window()*3/4, rec.stage)
	if err != nil {
		return nil, err
	}
	if err := rec.write(cfg.outPath(".trace.json")); err != nil {
		return nil, err
	}
	spans, _ := rec.snapshot()
	st := newSpanStats(spans, rec.cut.Load())
	for _, name := range []string{"wrapper.import_sgml", "wrapper.import_rel", "wrapper.export_html",
		"engine.run_sgml2odmg", "engine.run_odmg2html"} {
		m.setP(name+"_ms_p50", st.dur[name], 50)
	}
	untracedP50 := percentile(sorted(latencies(bare.asks)), 50)

	// One plain conversion for the exact counts, allocations and the
	// formatted-output cost.
	var out *conversion
	_, allocs, bytes, err := perCall(1, func() error { out, err = c.convert(in, nil); return err })
	if err != nil {
		return nil, err
	}
	m.set("engine.run_allocs", allocs, 1)
	m.set("engine.run_bytes", bytes, 1)
	var total engine.Stats
	for _, s := range out.stats {
		total.Activations += s.Activations
		total.Bindings += s.Bindings
		total.Outputs += s.Outputs
		total.Rounds += s.Rounds
	}
	m.set("engine.activations", float64(total.Activations), 1)
	m.set("engine.bindings", float64(total.Bindings), 1)
	m.set("engine.outputs", float64(total.Outputs), 1)
	m.set("engine.rounds", float64(total.Rounds), 1)
	format, _ := timeReps(cfg.reps, func() error { yat.FormatStore(out.outputs); return nil })
	m.set("tree.format_ms_p50", median(format), len(format))

	// Engine variants: the three runs of one conversion under other
	// options, everything else the same.
	variant := func(metric string, opts ...yat.Option) error {
		v := &converter{progs: c.progs, opts: func(int) []yat.Option { return opts }}
		var runs []float64
		for i := 0; i < cfg.reps; i++ {
			var spent time.Duration
			_, err := v.convert(in, func(stage string) func() {
				start := time.Now()
				return func() {
					if strings.HasPrefix(stage, "engine.run_") {
						spent += time.Since(start)
					}
				}
			})
			if err != nil {
				return err
			}
			runs = append(runs, float64(spent)/1e6)
		}
		m.set(metric, median(runs), len(runs))
		return nil
	}
	if err := variant("engine.run_unoptimized_ms_p50", yat.WithOptimize(false)); err != nil {
		return nil, err
	}
	if err := variant("engine.run_par_ms_p50", yat.WithOptimize(true), yat.WithParallelism(runtime.NumCPU())); err != nil {
		return nil, err
	}

	// The engine's own phase split, from one conversion under the
	// existing profile sink.
	profile := trace.NewProfile()
	profiled := &converter{progs: c.progs, opts: func(i int) []yat.Option {
		return append(c.opts(i), yat.WithTrace(profile))
	}}
	start := time.Now()
	if _, err := profiled.convert(in, nil); err != nil {
		return nil, err
	}
	if untracedP50 > 0 {
		m.set("trace.profile_overhead_ratio", float64(time.Since(start))/1e6/untracedP50, 1)
	}
	phases := map[trace.Phase]string{trace.PhaseMatch: "engine.match_ms", trace.PhaseFunctions: "engine.functions_ms",
		trace.PhasePredicates: "engine.predicates_ms", trace.PhaseSkolem: "engine.skolem_ms",
		trace.PhaseConstruct: "engine.construct_ms"}
	for phase, name := range phases {
		var wall time.Duration
		for _, r := range profile.Rules() {
			wall += r.Phases[phase].Wall
		}
		m.set(name, float64(wall)/1e6, 1)
	}

	// §4.3 composition: fuse SGML→ODMG with ODMG→HTML and run the fused
	// program straight over the imported brochures.
	first, err := yat.ParseProgram(yat.Rules1And2Typed)
	if err != nil {
		return nil, err
	}
	var fused *yat.Program
	fuse, err := timeReps(cfg.reps, func() error { fused, err = yat.ComposePrograms(first, c.progs[2]); return err })
	if err != nil {
		return nil, err
	}
	m.set("compose.fuse_ms_p50", median(fuse), len(fuse))
	sgml, err := yat.ImportSGML(in.docs, nil)
	if err != nil {
		return nil, err
	}
	fusedFacts := yat.AnalyzeProgram(fused)
	composed, err := timeReps(cfg.reps, func() error { _, err := yat.Run(fused, sgml, yat.WithFacts(fusedFacts)); return err })
	if err != nil {
		return nil, err
	}
	m.set("engine.run_composed_ms_p50", median(composed), len(composed))
	return tracedReport(cfg, m, bare, res), nil
}
