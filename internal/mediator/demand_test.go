package mediator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"yat/internal/engine"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func answersKey(t *testing.T, as []Answer) string {
	t.Helper()
	out := ""
	for _, a := range as {
		out += a.Name.Key() + "|" + a.Binding.Key() + "\n"
	}
	return out
}

// askWidths are the numbers of asks the mediator tests keep in flight
// at once: one alone, and enough to overlap on one cache generation,
// ask memo and matcher.
var askWidths = []int{1, 4, 8}

// concurrently runs ask on n goroutines at once and waits for all of
// them. ask reports with t.Errorf: t.Fatal must not leave a goroutine.
func concurrently(n int, ask func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ask()
		}()
	}
	wg.Wait()
}

// The golden equivalence gate: a demand-driven mediator answers every
// query byte-identically to a full-materialization mediator, for every
// builtin program and functor restriction.
func TestDemandMatchesFullMediator(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		inputs   *tree.Store
		pattern  string
		functors []string
	}{
		{"sgml2odmg-sup", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42), `X`, []string{"Psup"}},
		{"sgml2odmg-car", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42), `class -> car -*> Y`, []string{"Pcar"}},
		{"sgml2odmg-all", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42), `X`, nil},
		{"sgml2odmgTyped-sup", yatl.AnnotatedSGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42), `class -> supplier < -> name -> N, -> city -> C, -> zip -> Z >`, []string{"Psup"}},
		{"sgml2odmgPrime-both", yatl.SGMLToODMGPrimeSource, workload.BrochureStore(8, 2, 5, 42), `X`, []string{"Pcar", "Psup"}},
		{"odmg2html-page", yatl.WebProgramSource, workload.ODMGStore(5, 3, 2, 7), `html < -> head -> H, -> body -*> B >`, []string{"HtmlPage"}},
		{"odmg2html-elem", yatl.WebProgramSource, workload.ODMGStore(5, 3, 2, 7), `X`, []string{"HtmlElement"}},
		{"selective-one", workload.SelectiveProgram(6), workload.BrochureStore(6, 2, 5, 11), `view < -> name -> N, -> city -> C, -> zip -> Z >`, []string{"Pview2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			full := New(prog, c.inputs)
			want, err := full.Ask(c.pattern, c.functors...)
			if err != nil {
				t.Fatalf("full: %v", err)
			}
			if len(want) == 0 {
				t.Fatal("vacuous case, the pattern matches nothing")
			}
			demand := New(prog, c.inputs, WithDemandDriven(true))
			got, err := demand.Ask(c.pattern, c.functors...)
			if err != nil {
				t.Fatalf("demand: %v", err)
			}
			if answersKey(t, got) != answersKey(t, want) {
				t.Fatalf("demand answers differ from full\n got:\n%s\nwant:\n%s",
					answersKey(t, got), answersKey(t, want))
			}
			// Warm repeat must be identical too.
			again, err := demand.Ask(c.pattern, c.functors...)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if answersKey(t, again) != answersKey(t, want) {
				t.Fatal("warm demand answers differ")
			}
		})
	}
}

// Query pushdown, observed through the trace layer: a Psup ask on the
// typed program computes a one-rule slice, only that rule matches, a
// repeat ask is one memo hit, and the same ask of a parsed pattern,
// which the memo does not hold, is a pure cache hit with no engine run.
func TestDemandEvaluatesOnlyTheSlice(t *testing.T) {
	prog := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	rec := &trace.Recorder{}
	ctx := trace.WithSink(context.Background(), rec)
	m := New(prog, workload.BrochureStore(6, 2, 4, 3), WithDemandDriven(true))
	if _, err := m.AskContext(ctx, `X`, "Psup"); err != nil {
		t.Fatal(err)
	}
	slices, misses, hits := 0, 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindSliceComputed:
			slices++
		case trace.KindCacheMiss:
			misses++
		case trace.KindCacheHit:
			hits++
		case trace.KindMatch:
			if e.Rule != "Sup" {
				t.Errorf("rule %s matched outside the Psup slice", e.Rule)
			}
		}
	}
	if slices != 1 || misses != 1 || hits != 0 {
		t.Errorf("cold ask: slices=%d misses=%d hits=%d, want 1/1/0", slices, misses, hits)
	}
	before := len(rec.Events())
	if _, err := m.AskContext(ctx, `X`, "Psup"); err != nil {
		t.Fatal(err)
	}
	if fresh := rec.Events()[before:]; len(fresh) != 1 || fresh[0].Kind != trace.KindMemoHit {
		t.Errorf("repeat ask emitted %v, want a single memo hit", fresh)
	}
	pt, err := ParsePattern(`X`)
	if err != nil {
		t.Fatal(err)
	}
	before = len(rec.Events())
	if _, err := m.AskPatternContext(ctx, pt, "Psup"); err != nil {
		t.Fatal(err)
	}
	if fresh := rec.Events()[before:]; len(fresh) != 1 || fresh[0].Kind != trace.KindCacheHit || fresh[0].Rule != "Sup" {
		t.Errorf("warm parsed-pattern ask emitted %v, want a single Sup cache hit", fresh)
	}
	if s := m.Stats(); !s.Demand || s.SliceRuns != 1 || s.CachedRules != 1 || s.Materialized {
		t.Errorf("stats after one sliced ask: %+v", s)
	}
}

// countedViews is a two-rule program whose rules read different source
// shapes and count their external calls, making engine re-runs
// observable per rule.
func countedViews(t *testing.T) (*yatl.Program, *tree.Store, *engine.Registry, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var ca, cb atomic.Int64
	reg := engine.NewRegistry()
	for _, c := range []struct {
		name    string
		counter *atomic.Int64
	}{{"count_a", &ca}, {"count_b", &cb}} {
		counter := c.counter
		reg.Register(engine.Func{
			Name: c.name, Params: []engine.ParamType{engine.Text}, Result: engine.Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				counter.Add(1)
				return args[0], nil
			},
		})
	}
	prog := yatl.MustParse(`
program twoviews
rule A {
  head Pa(X) = outa -> V
  from X = ina -> D
  let V = count_a(D)
}
rule B {
  head Pb(X) = outb -> V
  from X = inb -> D
  let V = count_b(D)
}
`)
	store := tree.NewStore()
	for i := 0; i < 3; i++ {
		store.Put(tree.PlainName(fmt.Sprintf("a%d", i+1)), tree.Sym("ina", tree.Str(fmt.Sprintf("va%d", i+1))))
		store.Put(tree.PlainName(fmt.Sprintf("b%d", i+1)), tree.Sym("inb", tree.Str(fmt.Sprintf("vb%d", i+1))))
	}
	return prog, store, reg, &ca, &cb
}

// Demand mode runs each functor's slice once and serves it from the
// cache until Invalidate drops the generation.
func TestDemandFineGrainedInvalidation(t *testing.T) {
	prog, store, reg, ca, cb := countedViews(t)
	m := New(prog, store, engine.WithRegistry(reg), WithDemandDriven(true))
	ask := func() {
		t.Helper()
		if _, err := m.Ask(`X`, "Pa"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ask(`X`, "Pb"); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	if ca.Load() != 3 || cb.Load() != 3 {
		t.Fatalf("cold asks ran a=%d b=%d, want 3/3", ca.Load(), cb.Load())
	}
	ask() // warm: no engine work
	if ca.Load() != 3 || cb.Load() != 3 {
		t.Fatalf("warm asks re-ran the engine: a=%d b=%d", ca.Load(), cb.Load())
	}
	m.Invalidate()
	ask()
	if ca.Load() != 6 || cb.Load() != 6 {
		t.Fatalf("Invalidate should drop everything: a=%d b=%d", ca.Load(), cb.Load())
	}
	// SliceRuns (like Run) is per-generation: the full Invalidate
	// swapped in a fresh generation, whose two cold asks ran twice.
	if s := m.Stats(); !s.Materialized || s.CachedRules != 2 || s.SliceRuns != 2 ||
		s.CacheHits != 2 || s.CacheMisses != 4 {
		t.Errorf("final stats: %+v", s)
	}
}

// A cached group depends on exactly the rules of its slice. Feed's head
// reference mints arbitrary activations, which makes it a support rule
// of every other group; Dead is the same rule but can never fire. It
// still is a support rule of every slice, so every group depends on it,
// as on Feed: a rule that mints nothing costs a refresh a re-run, never
// a wrong answer.
func TestDependentsFollowSlice(t *testing.T) {
	prog := yatl.MustParse(`
program dead
rule Live {
  head Plive(X) = o -> v -> X
  from P = alpha < -> k -> X >
}
rule Other {
  head Pother(X) = o -> w -> X
  from P = alpha < -> k -> X >
}
rule Feed {
  head Pfeed(X) = o -> ref -> &Plive(X)
  from P = alpha < -> k -> X >
}
rule Dead {
  head Pdead(X) = o -> ref -> &Plive(X)
  from P = alpha < -> k -> X >
  where 1 == 2
}
`)
	if !engine.ComputeSlice(prog, "Plive").Includes("Dead") || !engine.ComputeSlice(prog, "Pother").Includes("Feed") {
		t.Fatal("vacuous: Dead must support Plive's slice, Feed must support Pother's")
	}
	store := tree.NewStore()
	store.Put(tree.PlainName("a1"), tree.Sym("alpha", tree.Sym("k", tree.Str("x"))))
	m := New(prog, store, WithDemandDriven(true))
	for _, f := range []string{"Plive", "Pother"} {
		if _, err := m.Ask(`X`, f); err != nil {
			t.Fatal(err)
		}
	}
	st := m.state()
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range []struct{ rule, want string }{
		{"Live", "[Plive]"},
		{"Feed", "[Plive Pother]"}, // a live support rule; Pfeed itself is not cached
		{"Dead", "[Plive Pother]"}, // never fires, but supports every slice as Feed does
		{"no-such-rule", "[]"},
	} {
		if got := fmt.Sprint(g.cache.dependents(st.comp, map[string]bool{c.rule: true})); got != c.want {
			t.Errorf("dependents(%s) = %s, want %s", c.rule, got, c.want)
		}
	}
}

// Demand-driven Get materializes only the identity's functor; Functors
// completes the materialization.
func TestDemandGetAndFunctors(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	m := New(prog, workload.BrochureStore(5, 2, 4, 42), WithDemandDriven(true))
	n, ok, err := m.Get(tree.SkolemName("Pcar", tree.Ref{Name: tree.PlainName("b1")}))
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if !n.Label.Equal(tree.Symbol("class")) {
		t.Errorf("object = %s", n)
	}
	if s := m.Stats(); s.CachedRules != 1 || s.Materialized {
		t.Errorf("Get should cache the Pcar rule only: %+v", s)
	}
	fs, err := m.Functors()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0] != "Pcar" || fs[1] != "Psup" {
		t.Errorf("functors = %v", fs)
	}
	if s := m.Stats(); !s.Materialized || s.CachedRules != 2 {
		t.Errorf("Functors should complete materialization: %+v", s)
	}
	if _, ok, _ := m.Get(tree.PlainName("ghost")); ok {
		t.Error("Get(ghost) found")
	}
}

// A failing slice run surfaces its error, is not cached, and retries.
func TestDemandErrorNotCached(t *testing.T) {
	prog := yatl.MustParse(`
program failing
rule R {
  head Pout(X) = out -> V
  from X = in -> D
  let V = raise(D)
}
`)
	store := tree.NewStore()
	store.Put(tree.PlainName("i1"), tree.Sym("in", tree.Str("boom")))
	m := New(prog, store, WithDemandDriven(true))
	if _, err := m.Ask(`X`, "Pout"); err == nil {
		t.Fatal("conversion should have failed")
	}
	if s := m.Stats(); s.Err == nil || s.Materialized || s.CachedRules != 0 {
		t.Errorf("failure not reflected in stats: %+v", s)
	}
	if _, err := m.Ask(`X`, "Pout"); err == nil {
		t.Fatal("retry should fail again")
	}
	if s := m.Stats(); s.SliceRuns != 0 {
		t.Errorf("failed runs must not count as slice runs: %+v", s)
	}
}

// The -race gate for demand mode: overlapping asks racing the two ways
// a cache loses groups — Invalidate, which drops the generation, and a
// refresh whose re-run fails, which evicts the affected group
// and leaves the rest (evictProgram) — with 1, 4 and 8 askers. Every
// answer is one of the two worlds the source alternates between, or the raised
// error while the re-run is failing; Pb, which the refreshes cannot
// reach, never changes.
func TestDemandConcurrentAskInvalidate(t *testing.T) {
	prog := yatl.MustParse(evictProgram)
	worldA := alphaStore("ant", "auk", "asp")
	worldB := alphaStore("ant", "auk") // A→B deletes a3
	betas := betaStore("bee", "boa")
	for _, par := range askWidths {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			var failures atomic.Int64
			opts := []engine.Option{engine.WithRegistry(boomRegistry(&failures))}
			fresh := func(store *tree.Store, functor string) string {
				got, err := New(prog, store, opts...).Ask(`X`, functor)
				if err != nil {
					t.Fatal(err)
				}
				return answersKey(t, got)
			}
			wantA, wantB, wantPb := fresh(worldA, "Pa"), fresh(worldB, "Pa"), fresh(betas, "Pb")

			fault := source.NewFault("src1", worldA)
			m := New(prog, nil, append(opts, WithDemandDriven(true),
				WithSources(fault, source.Static("src2", betas)))...)
			var wg sync.WaitGroup
			for c := 0; c < par; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						functor := "Pb"
						if (c+i)%2 == 0 {
							functor = "Pa"
						}
						got, err := m.Ask(`X`, functor)
						switch key := answersKey(t, got); {
						case err != nil && (functor != "Pa" || !strings.Contains(err.Error(), "boom")):
							t.Errorf("Ask(%s): %v", functor, err)
							return
						case err == nil && functor == "Pb" && key != wantPb,
							err == nil && functor == "Pa" && key != wantA && key != wantB:
							t.Errorf("Ask(%s) answered neither world:\n%s", functor, key)
							return
						}
					}
				}(c)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				watch := &cacheWatch{}
				for i := 0; i < 10; i++ {
					fault.SetStore(worldA)
					m.Invalidate()
					for _, f := range []string{"Pa", "Pb"} {
						if _, err := m.Ask(`X`, f); err != nil {
							t.Errorf("warming %s: %v", f, err)
							return
						}
					}
					watch.look(t, m)
					// The delete's re-run raises:
					// Pa is evicted, Pb stays, and until the function heals
					// nothing can fill Pa again.
					failures.Store(1 << 30)
					fault.SetStore(worldB)
					err := m.RefreshSource(context.Background(), "src1")
					if err == nil || !strings.Contains(err.Error(), "boom") {
						t.Errorf("refresh = %v, want the raised engine error", err)
					}
					watch.look(t, m)
					if got := m.Stats().CachedRules; got != 1 {
						t.Errorf("the failed re-run left %d rules cached, want Beta alone", got)
					}
					failures.Store(0)
				}
			}()
			wg.Wait()
		})
	}
}

// TestAskMemoIsolation: the demand generation memoizes repeated asks,
// so the slices handed out must be isolated — a caller clobbering its
// result slice must not corrupt the next ask's answers.
func TestAskMemoIsolation(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	m := New(prog, workload.BrochureStore(6, 2, 5, 11), WithDemandDriven(true))
	const pat = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	want, err := m.Ask(pat, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous: no answers")
	}
	wantKey := answersKey(t, want)
	got, err := m.Ask(pat, "Pview1") // memo hit
	if err != nil {
		t.Fatal(err)
	}
	got[0] = Answer{} // caller scribbles over its copy
	_ = append(got, Answer{})
	again, err := m.Ask(pat, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if answersKey(t, again) != wantKey {
		t.Errorf("memoized answers corrupted by a caller's writes:\n got:\n%s\nwant:\n%s",
			answersKey(t, again), wantKey)
	}
}

// TestNULFunctorBypassesMemos: a functor name holding a NUL names no
// YATL functor, and must not share a memo key with the list its
// NUL-separated parts spell. Each memo is covered on its own: the ask
// memo, warmed by the legitimate two-functor ask before the NUL ask with
// the same pattern; and the slice memo, warmed by the NUL ask before a
// legitimate ask whose second pattern text misses the ask memo. Both
// asks must answer what a full-mode mediator answers.
func TestNULFunctorBypassesMemos(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	const pat = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	const pat2 = `view < -> name -> S, -> city -> C, -> zip -> Z >`
	full := New(prog, inputs)
	oracle := func(pattern string, functors ...string) string {
		as, err := full.Ask(pattern, functors...)
		if err != nil {
			t.Fatal(err)
		}
		return answersKey(t, as)
	}
	check := func(t *testing.T, m *Mediator, pattern string, functors ...string) {
		t.Helper()
		got, err := m.Ask(pattern, functors...)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(pattern, functors...); answersKey(t, got) != want {
			t.Errorf("Ask(%q) = %d answers, full mode answers %d", functors, len(got), strings.Count(want, "\n"))
		}
	}
	if oracle(pat2, "Pview1", "Pview2") == "" || oracle(pat, "Pview1\x00Pview2") != "" {
		t.Fatal("vacuous: the two views must answer, the NUL functor must not")
	}
	t.Run("ask memo", func(t *testing.T) {
		m := New(prog, inputs, WithDemandDriven(true))
		check(t, m, pat, "Pview1", "Pview2")
		check(t, m, pat, "Pview1\x00Pview2")
	})
	t.Run("slice memo", func(t *testing.T) {
		m := New(prog, inputs, WithDemandDriven(true))
		check(t, m, pat, "Pview1\x00Pview2")
		check(t, m, pat2, "Pview1", "Pview2")
	})
}

// TestSliceMemo: the compiled program's slice memo serves a repeated
// single-functor probe without allocating, outlives Invalidate and
// Restore (same program) and is replaced by Reload. Its cap is the
// engine's (TestCompiledSliceMemo).
func TestSliceMemo(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	m := New(prog, workload.BrochureStore(6, 2, 5, 11), WithDemandDriven(true))
	comp := m.state().comp

	one := comp.Slice("Pview1")
	if one != comp.Slice("Pview1") || comp.Slice() != comp.Slice() {
		t.Error("a repeated probe computed a new slice")
	}
	if !one.Constructs("View1") || one.Rules() != 1 {
		t.Errorf("Pview1 slice = %s, want View1 alone", one)
	}
	if pair := comp.Slice("Pview2", "Pview1", "Pview2"); pair != comp.Slice("Pview1", "Pview2") || pair.Rules() != 2 {
		t.Errorf("order and repeats changed the two-view slice: %s", pair)
	}
	if n := testing.AllocsPerRun(100, func() { comp.Slice("Pview1") }); n != 0 {
		t.Errorf("single-functor probe allocates %.0f, want 0", n)
	}

	if _, err := m.Ask(`view < -> name -> N >`, "Pview1"); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Invalidate()
	if m.state().comp != comp {
		t.Error("Invalidate replaced the compiled program")
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if m.state().comp != comp {
		t.Error("Restore replaced the compiled program")
	}
	m.Reload(yatl.MustParse(workload.SelectiveProgram(4)))
	if m.state().comp == comp {
		t.Error("Reload kept the old compiled program")
	}
}
