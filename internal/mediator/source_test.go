package mediator

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// twoSourceProgram has two independent rules: Alpha reads only alpha
// trees, Beta reads only beta trees. Failing the source serving beta
// must leave every Pa answer untouched.
const twoSourceProgram = `
program twosrc

rule Alpha {
  head Pa(N) = item < -> name -> N >
  from A = alpha < -> name -> N >
}

rule Beta {
  head Pb(N) = item < -> name -> N >
  from B = beta < -> name -> N >
}
`

func alphaStore(names ...string) *tree.Store {
	s := tree.NewStore()
	for i, n := range names {
		s.Put(tree.PlainName(fmt.Sprintf("a%d", i+1)), tree.Sym("alpha", tree.Sym("name", tree.Str(n))))
	}
	return s
}

func betaStore(names ...string) *tree.Store {
	s := tree.NewStore()
	for i, n := range names {
		s.Put(tree.PlainName(fmt.Sprintf("b%d", i+1)), tree.Sym("beta", tree.Sym("name", tree.Str(n))))
	}
	return s
}

// The acceptance gate: with one source failing, asks over functors not
// depending on it return byte-identical answers to the all-healthy
// run, Stats reports the per-source failure, and the EXPLAIN profile
// records the fetch failures and retries — in both evaluation modes,
// with 1, 4 and 8 degraded asks in flight at once.
func TestPartialFailureDegradation(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	alphas := alphaStore("ant", "asp", "auk")
	betas := betaStore("bee", "boa")
	for _, demand := range []bool{false, true} {
		for _, par := range askWidths {
			t.Run(fmt.Sprintf("demand=%v/par=%d", demand, par), func(t *testing.T) {
				healthy := New(prog, nil,
					WithDemandDriven(demand),
					WithSources(source.Static("src1", alphas), source.Static("src2", betas)))
				want, err := healthy.Ask(`X`, "Pa")
				if err != nil {
					t.Fatalf("healthy ask: %v", err)
				}
				if len(want) != 3 {
					t.Fatalf("healthy Pa answers = %d, want 3", len(want))
				}

				clock := source.NewFakeClock()
				down := source.NewFault("src2", betas).WithClock(clock)
				down.SetErr(errors.New("connection refused"))
				prof := trace.NewProfile()
				degraded := New(prog, nil,
					engine.WithTrace(prof),
					WithDemandDriven(demand),
					WithSources(
						source.Static("src1", alphas),
						source.WithRetry(down, source.RetryOptions{MaxAttempts: 3, Clock: clock, Jitter: -1}),
					))
				concurrently(par, func() {
					got, err := degraded.Ask(`X`, "Pa")
					if err != nil {
						t.Errorf("degraded ask: %v", err)
						return
					}
					if answersKey(t, got) != answersKey(t, want) {
						t.Errorf("degraded Pa answers differ from healthy\n got:\n%s\nwant:\n%s",
							answersKey(t, got), answersKey(t, want))
						return
					}
					// The functor that does depend on the dead source
					// degrades to no answers, not an error.
					bs, err := degraded.Ask(`X`, "Pb")
					if err != nil {
						t.Errorf("degraded Pb ask: %v", err)
						return
					}
					if len(bs) != 0 {
						t.Errorf("degraded Pb answers = %d, want 0", len(bs))
					}
				})
				if t.Failed() {
					t.FailNow()
				}

				st := degraded.Stats()
				if len(st.Sources) != 2 {
					t.Fatalf("Stats.Sources = %d entries, want 2", len(st.Sources))
				}
				s1, s2 := st.Sources[0], st.Sources[1]
				if s1.Name != "src1" || s1.FetchErr != "" || s1.Entries != 3 {
					t.Errorf("src1 status = %+v, want healthy with 3 entries", s1)
				}
				if s2.Name != "src2" || s2.FetchErr == "" || s2.Entries != 0 {
					t.Errorf("src2 status = %+v, want a fetch error and 0 entries", s2)
				}
				if s2.Retries == 0 || s2.Failures == 0 {
					t.Errorf("src2 chain counters = %+v, want retries and failures", s2)
				}

				var src1p, src2p *trace.SourceProfile
				for i, sp := range prof.Sources() {
					switch sp.Source {
					case "src1":
						src1p = &prof.Sources()[i]
					case "src2":
						src2p = &prof.Sources()[i]
					}
				}
				if src1p == nil || src2p == nil {
					t.Fatalf("profile sources = %+v, want src1 and src2", prof.Sources())
				}
				if src1p.Failures != 0 || src1p.Fetches == 0 {
					t.Errorf("src1 profile = %+v", src1p)
				}
				if src2p.Failures == 0 || src2p.Retries == 0 {
					t.Errorf("src2 profile = %+v, want failures and retries", src2p)
				}
				var sb strings.Builder
				if err := prof.Render(&sb, false); err != nil {
					t.Fatal(err)
				}
				for _, wantLine := range []string{"source src1", "source src2", fmt.Sprintf("failures=%d", src2p.Failures), fmt.Sprintf("retries=%d", src2p.Retries)} {
					if !strings.Contains(sb.String(), wantLine) {
						t.Errorf("rendered profile missing %q:\n%s", wantLine, sb.String())
					}
				}
			})
		}
	}
}

// Sources compose with the constructor store: constructor entries merge
// first, then sources in declaration order, later sources winning name
// collisions — deterministically.
func TestSourceMergeOrder(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	base := tree.NewStore()
	base.Put(tree.PlainName("a1"), tree.Sym("alpha", tree.Sym("name", tree.Str("base"))))
	over := tree.NewStore()
	over.Put(tree.PlainName("a1"), tree.Sym("alpha", tree.Sym("name", tree.Str("override"))))
	m := New(prog, base, WithSources(source.Static("over", over)))
	got, err := m.Ask(`X`, "Pa")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("answers = %d, want 1 (collision should replace, not add)", len(got))
	}
	n, ok, err := m.Get(got[0].Name)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if s := n.String(); !strings.Contains(s, "override") {
		t.Errorf("later source did not win the collision: %s", s)
	}
}

func TestAllSourcesFailedIsAnError(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	s1 := source.NewFault("s1", nil)
	s1.SetErr(errors.New("dns"))
	s2 := source.NewFault("s2", nil)
	s2.SetErr(errors.New("tls"))
	for _, demand := range []bool{false, true} {
		m := New(prog, nil, WithDemandDriven(demand), WithSources(s1, s2))
		_, err := m.Ask(`X`)
		var fe *FetchError
		if !errors.As(err, &fe) {
			t.Fatalf("demand=%v: err = %v, want *FetchError", demand, err)
		}
		msg := err.Error()
		for _, name := range []string{"s1", "s2", "dns", "tls"} {
			if !strings.Contains(msg, name) {
				t.Errorf("demand=%v: error %q does not mention %q", demand, msg, name)
			}
		}
	}
}

// RefreshSource after a recovery makes the healed source's data
// visible in both modes — including the demand-mode corner where rules
// were cached while the source was down and therefore carry no
// dependency record for it.
func TestRefreshSourceRecovery(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	betas := betaStore("bee", "boa")
	for _, demand := range []bool{false, true} {
		t.Run(fmt.Sprintf("demand=%v", demand), func(t *testing.T) {
			flaky := source.NewFault("src2", betas)
			flaky.SetErr(errors.New("down"))
			m := New(prog, nil, WithDemandDriven(demand),
				WithSources(source.Static("src1", alphaStore("ant")), flaky))
			if got, err := m.Ask(`X`, "Pb"); err != nil || len(got) != 0 {
				t.Fatalf("degraded Pb = %d answers, %v; want 0, nil", len(got), err)
			}
			flaky.SetErr(nil)
			if err := m.RefreshSource(context.Background(), "src2"); err != nil {
				t.Fatal(err)
			}
			got, err := m.Ask(`X`, "Pb")
			if err != nil || len(got) != 2 {
				t.Fatalf("recovered Pb = %d answers, %v; want 2, nil", len(got), err)
			}
			if st := m.Stats(); st.Sources[1].FetchErr != "" {
				t.Errorf("src2 still reports %q after recovery", st.Sources[1].FetchErr)
			}
		})
	}
}

func TestRefreshSourceUnknownName(t *testing.T) {
	m := New(yatl.MustParse(twoSourceProgram), nil,
		WithSources(source.Static("src1", alphaStore("ant"))))
	err := m.RefreshSource(nil, "nope")
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Name != "nope" {
		t.Fatalf("err = %v, want *NotFoundError naming %q", err, "nope")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-source naming %q", err, "nope")
	}
}

// A refresh whose fetch leaves the refreshed source down fails with a
// *FetchError naming it and keeps the generation: pin, groups and ask
// memo answer on, completely, while Stats reports the failed fetch; the
// next refresh that succeeds diffs against the unmoved pin.
func TestFailedRefreshKeepsGeneration(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	alphas := alphaStore("ant")
	fault := source.NewFault("src2", betaStore("bee"))
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(source.Static("src1", alphas), fault))
	warm, err := m.Ask(`X`)
	if err != nil || len(warm) != 2 {
		t.Fatalf("warm ask = %d, %v", len(warm), err)
	}
	watch := &cacheWatch{}
	ver, memo := watch.look(t, m)
	before := m.Stats()

	failedRefresh := func(t *testing.T, m *Mediator) {
		t.Helper()
		err := m.RefreshSource(nil, "src2")
		var fe *FetchError
		if !errors.As(err, &fe) || len(fe.Errs) != 1 || fe.Errs["src2"] == nil {
			t.Fatalf("refresh of a down source = %v, want a *FetchError naming src2", err)
		}
	}
	fault.SetErr(errors.New("down"))
	failedRefresh(t, m)
	if v, kept := watch.look(t, m); v != ver || kept != memo {
		t.Errorf("cache version %d -> %d, memo %d -> %d: a failed refresh moved the cache", ver, v, memo, kept)
	}
	got, err := m.Ask(`X`)
	if err != nil || answersKey(t, got) != answersKey(t, warm) {
		t.Fatalf("post-failed-refresh ask: %v\n%s\nwant the warm answers\n%s", err, answersKey(t, got), answersKey(t, warm))
	}
	st := m.Stats()
	if st.MemoHits != before.MemoHits+1 || st.SliceRuns != before.SliceRuns ||
		st.Generation != before.Generation || st.CachedRules != before.CachedRules ||
		st.DeltaFallbacks != 1 || st.DeltaRuns != 0 || st.PatchedRules != 0 {
		t.Errorf("stats after the failed refresh: %+v\nbefore: %+v", st, before)
	}
	if st.Sources[0].FetchErr != "" || st.Sources[1].FetchErr == "" || st.Sources[1].Entries != 1 {
		t.Errorf("source health = %+v, want src2's failed fetch over its last good count", st.Sources)
	}

	// Healed and grown: one insert patch against the pin the failed
	// refresh left in place.
	grown := betaStore("bee", "boa")
	fault.SetErr(nil)
	fault.SetStore(grown)
	if err := m.RefreshSource(nil, "src2"); err != nil {
		t.Fatal(err)
	}
	got, err = m.Ask(`X`)
	if err != nil || answersKey(t, got) != answersFor(t, prog, alphas, grown, `X`) {
		t.Fatalf("healed answers differ from a fresh run: %v\n%s", err, answersKey(t, got))
	}
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 1 || st.Sources[1].FetchErr != "" {
		t.Errorf("stats after the healed refresh: %+v", st)
	}

	// A restored generation has no store to diff but the same claim on
	// its groups: the failed refresh is decided before the baseline is
	// missed.
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fault.SetErr(errors.New("down again"))
	restored := New(prog, nil, WithDemandDriven(true),
		WithSources(source.Static("src1", alphas), fault))
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	was := restored.Stats()
	failedRefresh(t, restored)
	got, err = restored.Ask(`X`)
	if err != nil || answersKey(t, got) != answersFor(t, prog, alphas, grown, `X`) {
		t.Fatalf("restored answers after a failed refresh: %v\n%s", err, answersKey(t, got))
	}
	if st := restored.Stats(); st.Generation != was.Generation || st.SliceRuns != was.SliceRuns ||
		st.CacheMisses != was.CacheMisses || st.CachedRules != was.CachedRules {
		t.Errorf("restored stats after the failed refresh: %+v\nbefore: %+v", st, was)
	}
}

// The Ask counter discipline on every path: Asks == CacheHits +
// CacheMisses + parse failures, AskTime grows, hits only from an
// already-successful materialization.
func TestAskCounterConsistency(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	boom := errors.New("down")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		mk   func(t *testing.T) *Mediator
		ask  func(m *Mediator) error
		// wants after running ask twice; memo of the hits came from the
		// ask memo, which only demand mode has
		asks, hits, misses, memo int64
	}{
		{
			name: "parse failure counts neither hit nor miss",
			mk: func(t *testing.T) *Mediator {
				return New(prog, alphaStore("ant"))
			},
			ask:  func(m *Mediator) error { _, err := m.Ask(`<<< not a pattern`); return err },
			asks: 2, hits: 0, misses: 0,
		},
		{
			name: "full mode cold then warm",
			mk: func(t *testing.T) *Mediator {
				return New(prog, alphaStore("ant"))
			},
			ask:  func(m *Mediator) error { _, err := m.Ask(`X`, "Pa"); return err },
			asks: 2, hits: 1, misses: 1,
		},
		{
			name: "demand mode cold then warm",
			mk: func(t *testing.T) *Mediator {
				return New(prog, alphaStore("ant"), WithDemandDriven(true))
			},
			ask:  func(m *Mediator) error { _, err := m.Ask(`X`, "Pa"); return err },
			asks: 2, hits: 1, misses: 1, memo: 1,
		},
		{
			name: "demand mode cold, then a warm ask the memo has not seen",
			mk: func(t *testing.T) *Mediator {
				return New(prog, alphaStore("ant"), WithDemandDriven(true))
			},
			ask: func(m *Mediator) error {
				_, err := m.AskPattern(yatl.MustParsePattern(`X`), "Pa") // a new memo key per parse
				return err
			},
			asks: 2, hits: 1, misses: 1, memo: 0,
		},
		{
			name: "full mode memoized failure is a miss every time",
			mk: func(t *testing.T) *Mediator {
				f := source.NewFault("s", nil)
				f.SetErr(boom)
				return New(prog, nil, WithSources(f))
			},
			ask:  func(m *Mediator) error { _, err := m.Ask(`X`); return err },
			asks: 2, hits: 0, misses: 2,
		},
		{
			name: "demand mode failure is a miss and retries",
			mk: func(t *testing.T) *Mediator {
				f := source.NewFault("s", nil)
				f.SetErr(boom)
				return New(prog, nil, WithDemandDriven(true), WithSources(f))
			},
			ask:  func(m *Mediator) error { _, err := m.Ask(`X`); return err },
			asks: 2, hits: 0, misses: 2,
		},
		{
			name: "cancelled context is a miss, not a hit",
			mk: func(t *testing.T) *Mediator {
				return New(prog, alphaStore("ant"))
			},
			ask:  func(m *Mediator) error { _, err := m.AskContext(cancelled, `X`, "Pa"); return err },
			asks: 2, hits: 0, misses: 2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.mk(t)
			err1 := c.ask(m)
			err2 := c.ask(m)
			st := m.Stats()
			if st.Asks != c.asks || st.CacheHits != c.hits || st.CacheMisses != c.misses || st.MemoHits != c.memo {
				t.Errorf("asks/hits/misses/memo = %d/%d/%d/%d, want %d/%d/%d/%d (errs: %v, %v)",
					st.Asks, st.CacheHits, st.CacheMisses, st.MemoHits, c.asks, c.hits, c.misses, c.memo, err1, err2)
			}
			if st.MemoHits > st.CacheHits {
				t.Errorf("invariant broken: memo hits (%d) exceed cache hits (%d)", st.MemoHits, st.CacheHits)
			}
			if st.AskTime <= 0 {
				t.Errorf("AskTime = %v, want > 0 on every path", st.AskTime)
			}
			parseFailures := st.Asks - st.CacheHits - st.CacheMisses
			if parseFailures < 0 {
				t.Errorf("invariant broken: hits+misses (%d) exceed asks (%d)",
					st.CacheHits+st.CacheMisses, st.Asks)
			}
		})
	}
}

// Concurrent asks against a source flapping between failing and
// healthy, with invalidations forcing refetches — run under -race.
// Every successful answer set must be one of the two consistent
// worlds: all-healthy or src2-degraded.
func TestSourceFlapRace(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	alphas := alphaStore("ant", "asp")
	betas := betaStore("bee", "boa")

	healthyWant := answersFor(t, prog, alphas, betas, `X`)
	degradedWant := answersFor(t, prog, alphas, nil, `X`)

	for _, demand := range []bool{false, true} {
		t.Run(fmt.Sprintf("demand=%v", demand), func(t *testing.T) {
			flap := source.NewFault("src2", betas)
			m := New(prog, nil,
				WithDemandDriven(demand),
				WithSources(source.Static("src1", alphas), flap))
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // the flapper
				defer wg.Done()
				down := errors.New("flap")
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 0 {
						flap.SetErr(down)
					} else {
						flap.SetErr(nil)
					}
					m.Invalidate()
				}
			}()
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						got, err := m.Ask(`X`)
						if err != nil {
							t.Errorf("ask: %v", err)
							return
						}
						key := answersKey(t, got)
						if key != healthyWant && key != degradedWant {
							t.Errorf("inconsistent answer set:\n%s", key)
							return
						}
						m.Stats() // exercise the stats path under race too
					}
				}()
			}
			// Let the askers finish, then stop the flapper.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			<-time.After(10 * time.Millisecond)
			close(stop)
			<-done
		})
	}
}

// answersFor computes the expected answer key for a program over fixed
// stores (nil betas = degraded world) without any source layer.
func answersFor(t *testing.T, prog *yatl.Program, alphas, betas *tree.Store, pattern string) string {
	t.Helper()
	merged := tree.NewStore()
	for _, e := range alphas.Entries() {
		merged.Put(e.Name, e.Tree)
	}
	if betas != nil {
		for _, e := range betas.Entries() {
			merged.Put(e.Name, e.Tree)
		}
	}
	got, err := New(prog, merged).Ask(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return answersKey(t, got)
}

// The soak: a long scripted fault schedule driven through the full
// decorator chain, asserting the partial-result invariant on every
// iteration and zero goroutine leaks at the end. CI runs it with
// YAT_SOAK=1 for more iterations.
func TestSourceSoak(t *testing.T) {
	iters := 20
	if os.Getenv("YAT_SOAK") != "" {
		iters = 200
	}
	baseline := runtime.NumGoroutine()

	prog := yatl.MustParse(twoSourceProgram)
	alphas := alphaStore("ant", "asp")
	betas := betaStore("bee", "boa")
	healthyWant := answersFor(t, prog, alphas, betas, `X`)
	degradedWant := answersFor(t, prog, alphas, nil, `X`)

	clock := source.NewFakeClock()
	schedule := []source.Step{
		{}, // healthy
		{Fail: errors.New("timeout")},
		{Fail: errors.New("refused")},
		{}, // recovered
		{Latency: 5 * time.Millisecond},
		{Fail: errors.New("reset")},
	}
	fault := source.NewFault("src2", betas, schedule...).Loop(true).WithClock(clock)
	chain := source.WithBreaker(
		source.WithRetry(fault, source.RetryOptions{MaxAttempts: 2, Clock: clock, Jitter: -1}),
		source.BreakerOptions{Threshold: 4, Cooldown: time.Second, Clock: clock},
	)
	m := New(prog, nil, WithSources(source.Static("src1", alphas), chain))

	for i := 0; i < iters; i++ {
		got, err := m.Ask(`X`)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		key := answersKey(t, got)
		if key != healthyWant && key != degradedWant {
			t.Fatalf("iter %d: inconsistent answer set:\n%s", i, key)
		}
		st := m.Stats()
		if len(st.Sources) != 2 || st.Sources[0].FetchErr != "" {
			t.Fatalf("iter %d: src1 must stay healthy: %+v", i, st.Sources)
		}
		m.Invalidate()
		clock.Advance(300 * time.Millisecond)
	}

	// Goroutine-leak check (no external deps): all machinery above is
	// synchronous or waits on fetch goroutines, so the count must
	// return to the baseline once the scheduler settles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Demand mode records which sources were down during cached slice runs
// and exposes the degradation through Stats.
func TestDemandDegradedStats(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	flaky := source.NewFault("src2", betaStore("bee"))
	flaky.SetErr(errors.New("down"))
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(source.Static("src1", alphaStore("ant")), flaky))
	if _, err := m.Ask(`X`, "Pa"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Sources[1].FetchErr == "" {
		t.Errorf("src2 status = %+v, want a fetch error", st.Sources[1])
	}
	if st.Sources[0].Entries == 0 {
		t.Errorf("src1 status = %+v, want contributed entries", st.Sources[0])
	}
}
