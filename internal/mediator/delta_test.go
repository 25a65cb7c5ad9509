package mediator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// putAlpha commits one alpha entry under an explicit id, for deltas
// that need inserts, deletes and rewrites at chosen positions.
func putAlpha(s *tree.Store, id, name string) {
	s.Put(tree.PlainName(id), tree.Sym("alpha", tree.Sym("name", tree.Str(name))))
}

func deltaEvents(rec *trace.Recorder, kind trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// The tentpole's acceptance gate: after RefreshSource absorbs an
// insert-only, delete-only or mixed delta, every answer is
// byte-identical to a from-scratch mediator over the new stores, with
// 1, 4 and 8 asks in flight at once after the refresh, and the stats
// say each was absorbed in place, rewriting the one group it reaches.
func TestDeltaRefreshEquivalence(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	betas := betaStore("bee", "boa")
	mkOld := func() *tree.Store { return alphaStore("ant", "asp") } // a1, a2

	scenarios := []struct {
		name                        string
		newAlphas                   func() *tree.Store
		wantRuns, wantFalls, wantPR int64
	}{
		{"insert-only", func() *tree.Store {
			s := mkOld()
			putAlpha(s, "a3", "auk")
			return s
		}, 1, 0, 1},
		{"delete-only", func() *tree.Store {
			return alphaStore("ant") // a2 gone
		}, 1, 0, 1},
		{"mixed", func() *tree.Store {
			s := tree.NewStore()
			putAlpha(s, "a2", "newt") // rewritten
			putAlpha(s, "a3", "auk")  // inserted; a1 deleted
			return s
		}, 1, 0, 1},
		{"no-op", mkOld, 1, 0, 0},
	}
	for _, sc := range scenarios {
		for _, par := range askWidths {
			t.Run(fmt.Sprintf("%s/par=%d", sc.name, par), func(t *testing.T) {
				newAlphas := sc.newAlphas()
				fault := source.NewFault("src1", mkOld())
				m := New(prog, nil, WithDemandDriven(true),
					WithSources(fault, source.Static("src2", betas)))
				if got, err := m.Ask(`X`); err != nil || len(got) == 0 {
					t.Fatalf("warm ask = %d answers, %v", len(got), err)
				}
				fault.SetStore(newAlphas)
				watch := &cacheWatch{}
				before, memo := watch.look(t, m)
				if err := m.RefreshSource(context.Background(), "src1"); err != nil {
					t.Fatalf("refresh: %v", err)
				}
				// Every absorbed delta is a cache mutation (version bump,
				// memo cleared); the empty one leaves both alone.
				if after, kept := watch.look(t, m); sc.name == "no-op" && (after != before || kept != memo) ||
					sc.name != "no-op" && (after <= before || kept != 0) {
					t.Errorf("cache version %d -> %d, memo %d -> %d", before, after, memo, kept)
				}
				want := answersFor(t, prog, newAlphas, betas, `X`)
				wantPa := answersFor(t, prog, newAlphas, nil, `X`)
				concurrently(par, func() {
					got, err := m.Ask(`X`)
					if err != nil {
						t.Errorf("post-refresh ask: %v", err)
						return
					}
					if answersKey(t, got) != want {
						t.Errorf("refreshed answers differ from a fresh run\n got:\n%s\nwant:\n%s",
							answersKey(t, got), want)
						return
					}
					// Per-functor asks go through the same cache.
					pa, err := m.Ask(`X`, "Pa")
					if err != nil || answersKey(t, pa) != wantPa {
						t.Errorf("Pa answers diverged: %v\n%s", err, answersKey(t, pa))
					}
				})
				st := m.Stats()
				if st.DeltaRuns != sc.wantRuns || st.DeltaFallbacks != sc.wantFalls || st.PatchedRules != sc.wantPR {
					t.Errorf("delta stats = runs=%d fallbacks=%d patched=%d, want %d/%d/%d",
						st.DeltaRuns, st.DeltaFallbacks, st.PatchedRules,
						sc.wantRuns, sc.wantFalls, sc.wantPR)
				}
			})
		}
	}
}

// A refresh before anything is cached has nothing to re-run and counts
// as absorbed in place, not as a fallback.
func TestDeltaRefreshColdCache(t *testing.T) {
	fault := source.NewFault("src1", alphaStore("ant"))
	m := New(yatl.MustParse(twoSourceProgram), nil, WithDemandDriven(true),
		WithSources(fault, source.Static("src2", betaStore("bee"))))
	if err := m.RefreshSource(context.Background(), "src1"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 || st.PatchedRules != 0 {
		t.Errorf("cold refresh stats = %d/%d/%d, want 1/0/0",
			st.DeltaRuns, st.DeltaFallbacks, st.PatchedRules)
	}
}

// joinProgram's rule joins alpha and beta bodies on a shared variable.
const joinProgram = `
program join

rule J {
  head Pj(N) = pair < -> left -> N >
  from A = alpha < -> name -> N >
  from B = beta < -> name -> N >
}
`

// derefProgram's DA head dereferences the Pb Skolem minted by DB.
const derefProgram = `
program deref

rule DA {
  head Pa(N) = item < -> name -> N, -> det -> ^Pb(N) >
  from X = alpha < -> name -> N >
}

rule DB {
  head Pb(N) = detail -> N
  from Y = alpha < -> name -> N >
}
`

// boomProgram plus boomRegistry force engine run failures on demand:
// maybe_boom raises (an engine-level error, not a dropped binding)
// while `failures` is positive and the argument is "auk" — the entry
// the tests insert.
const boomProgram = `
program boom

rule Boom {
  head Pe(X) = out -> V
  from X = alpha < -> name -> N >
  let V = maybe_boom(N)
}
`

func boomRegistry(failures *atomic.Int64) *engine.Registry {
	reg := engine.NewRegistry()
	reg.Register(engine.Func{
		Name: "maybe_boom", Params: []engine.ParamType{engine.Text}, Result: engine.Text,
		Fn: func(args []tree.Value) (tree.Value, error) {
			if args[0].Equal(tree.Value(tree.String("auk"))) && failures.Add(-1) >= 0 {
				return nil, engine.ErrRaised{Msg: "boom"}
			}
			return args[0], nil
		},
	})
	return reg
}

// typedRefProgram's one match reads a second entry: R : &Pgood follows
// the reference a1 holds and checks its target against the model, so
// what a1 yields changes when b1 does.
const typedRefProgram = `
program typedref

model M {
  Pgood = good -> X : int
}

rule Item {
  head Pitem(A) = out -> R
  from A = item -> ref -> R : &Pgood
}
`

const (
	typedRefItem = "a1: item < ref < &b1 > >\n"
	typedRefGood = "b1: good < 1 >\n"
	typedRefBad  = "b1: bad < 1 >\n"
)

func storeOf(t *testing.T, src string) *tree.Store {
	t.Helper()
	s, err := tree.ParseStore(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A refresh that changes, deletes or inserts an entry another entry's
// match reads through a typed reference answers like a fresh
// full-mode mediator over the new store. Neither side of the rewrite
// or the deletion, nor the inserted tree, matches Item's body — only
// the rule's shape says the delta can reach it.
func TestRefreshFollowsTypedReferences(t *testing.T) {
	prog := yatl.MustParse(typedRefProgram)
	for _, c := range []struct {
		name, before, after string
		was, want           int
	}{
		{"change", typedRefItem + typedRefGood, typedRefItem + typedRefBad, 1, 0},
		{"delete", typedRefItem + typedRefGood, typedRefItem, 1, 0},
		{"insert", typedRefItem, typedRefItem + typedRefGood, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			fault := source.NewFault("src1", storeOf(t, c.before))
			m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
			if got, err := m.Ask(`X`, "Pitem"); err != nil || len(got) != c.was {
				t.Fatalf("warm ask = %d answers, %v; want %d", len(got), err, c.was)
			}
			fault.SetStore(storeOf(t, c.after))
			if err := m.RefreshSource(context.Background(), "src1"); err != nil {
				t.Fatal(err)
			}
			want, err := New(prog, storeOf(t, c.after)).Ask(`X`, "Pitem")
			if err != nil || len(want) != c.want {
				t.Fatalf("fresh full-mode ask = %d answers, %v; want %d", len(want), err, c.want)
			}
			got, err := m.Ask(`X`, "Pitem")
			if err != nil || answersKey(t, got) != answersKey(t, want) {
				t.Fatalf("refreshed answers differ from a fresh run (%v)\n got:\n%s\nwant:\n%s",
					err, answersKey(t, got), answersKey(t, want))
			}
			if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
				t.Errorf("stats = runs=%d fallbacks=%d, want it absorbed in place", st.DeltaRuns, st.DeltaFallbacks)
			}
		})
	}
}

// A deletion, a join of two bodies, a head that dereferences a Skolem,
// exception rules and an insert that re-mints a cached identity are all
// absorbed in place by the re-run: one applied event, no fallback, and
// answers byte-identical to a fresh full-mode mediator over the new
// store.
func TestRefreshReRunsInPlace(t *testing.T) {
	collide := alphaStore("ant", "asp")
	putAlpha(collide, "a9", "ant") // re-mints Pa(ant)
	for _, c := range []struct {
		name, prog    string
		betas, alphas *tree.Store
	}{
		{"deletions", twoSourceProgram, betaStore("bee"), alphaStore("ant")},
		{"multi-pattern-join", joinProgram, betaStore("ant", "auk"), alphaStore("ant", "asp", "auk")},
		{"skolem-deref", derefProgram, nil, alphaStore("ant", "asp", "auk")},
		{"exception-rules", twoSourceProgram + yatl.ExceptionRuleSource, betaStore("bee"), alphaStore("ant", "asp", "auk")},
		{"output-collision", twoSourceProgram, betaStore("bee"), collide},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.prog)
			rec := &trace.Recorder{}
			fault := source.NewFault("src1", alphaStore("ant", "asp"))
			srcs := []source.Source{fault}
			merged := c.alphas.Clone()
			if c.betas != nil {
				srcs = append(srcs, source.Static("src2", c.betas))
				for _, e := range c.betas.Entries() {
					merged.Put(e.Name, e.Tree)
				}
			}
			m := New(prog, nil, WithDemandDriven(true), WithSources(srcs...))
			if _, err := m.Ask(`X`); err != nil {
				t.Fatalf("warm ask: %v", err)
			}
			fault.SetStore(c.alphas)
			if err := m.RefreshSource(trace.WithSink(context.Background(), rec), "src1"); err != nil {
				t.Fatal(err)
			}
			if n, falls := len(deltaEvents(rec, trace.KindDeltaApplied)), deltaEvents(rec, trace.KindDeltaFallback); n != 1 || len(falls) != 0 {
				t.Fatalf("%d applied events, fallbacks %+v; want it absorbed in place", n, falls)
			}
			want, err := New(prog, merged).Ask(`X`)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Ask(`X`)
			if err != nil || answersKey(t, got) != answersKey(t, want) {
				t.Fatalf("refreshed answers differ from a fresh run (%v)\n got:\n%s\nwant:\n%s",
					err, answersKey(t, got), answersKey(t, want))
			}
			if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
				t.Errorf("stats = runs=%d fallbacks=%d, want one refresh absorbed in place", st.DeltaRuns, st.DeltaFallbacks)
			}
		})
	}
}

// Every fallback reason is forced at least once and shows up in the
// trace; after each fallback the cache still answers byte-identically
// to a fresh mediator over the new world.
func TestDeltaFallbackReasons(t *testing.T) {
	ctx := context.Background()

	// run builds a demand mediator over fault+static sources, warms it
	// with Ask(`X`), applies mutate, refreshes src1 and returns the
	// recorder plus the refresh error.
	run := func(t *testing.T, progSrc string, opts []engine.Option, betas *tree.Store,
		mutate func(f *source.Fault)) (*Mediator, *source.Fault, *trace.Recorder, error) {
		t.Helper()
		rec := &trace.Recorder{}
		prog := yatl.MustParse(progSrc)
		fault := source.NewFault("src1", alphaStore("ant", "asp"))
		srcs := []source.Source{fault}
		if betas != nil {
			srcs = append(srcs, source.Static("src2", betas))
		}
		all := append([]engine.Option{WithDemandDriven(true), WithSources(srcs...)}, opts...)
		m := New(prog, nil, all...)
		if _, err := m.Ask(`X`); err != nil {
			t.Fatalf("warm ask: %v", err)
		}
		mutate(fault)
		err := m.RefreshSource(trace.WithSink(ctx, rec), "src1")
		return m, fault, rec, err
	}

	wantFallback := func(t *testing.T, rec *trace.Recorder, reason string) {
		t.Helper()
		falls := deltaEvents(rec, trace.KindDeltaFallback)
		if len(falls) != 1 || !strings.Contains(falls[0].Detail, "reason="+reason) {
			t.Fatalf("fallback events = %+v, want one with reason=%s", falls, reason)
		}
	}

	equivalent := func(t *testing.T, m *Mediator, prog string, opts []engine.Option, alphas, betas *tree.Store) {
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
		fresh := New(yatl.MustParse(prog), merged, opts...)
		want, err := fresh.Ask(`X`)
		if err != nil {
			t.Fatalf("fresh ask: %v", err)
		}
		got, err := m.Ask(`X`)
		if err != nil {
			t.Fatalf("post-refresh ask: %v", err)
		}
		if answersKey(t, got) != answersKey(t, want) {
			t.Fatalf("answers diverged after fallback\n got:\n%s\nwant:\n%s",
				answersKey(t, got), answersKey(t, want))
		}
	}

	t.Run("degraded-source", func(t *testing.T) {
		// Rules cached while src2 was down carry no dependency record
		// for it: the recovery refresh must invalidate wholesale.
		rec := &trace.Recorder{}
		prog := yatl.MustParse(twoSourceProgram)
		alphas := alphaStore("ant", "asp")
		betas := betaStore("bee", "boa")
		flaky := source.NewFault("src2", betas)
		flaky.SetErr(errors.New("down"))
		m := New(prog, nil, WithDemandDriven(true),
			WithSources(source.Static("src1", alphas), flaky))
		if got, err := m.Ask(`X`); err != nil || len(got) != 2 {
			t.Fatalf("degraded warm = %d answers, %v; want the 2 Pa answers", len(got), err)
		}
		flaky.SetErr(nil)
		if err := m.RefreshSource(trace.WithSink(ctx, rec), "src2"); err != nil {
			t.Fatal(err)
		}
		wantFallback(t, rec, ReasonDegradedSource)
		got, err := m.Ask(`X`)
		if err != nil || answersKey(t, got) != answersFor(t, prog, alphas, betas, `X`) {
			t.Fatalf("recovered answers wrong: %v\n%s", err, answersKey(t, got))
		}
		if st := m.Stats(); st.DeltaFallbacks != 1 || st.DeltaRuns != 0 {
			t.Errorf("stats = %+v, want one fallback", st)
		}
	})

	t.Run("fetch-failed", func(t *testing.T) {
		// The refresh of a healthy src2 finds src1 down: no complete
		// new picture exists, and a dead neighbour must not freeze
		// src2's refreshes, so the whole generation goes. (When the
		// refreshed source itself is down the generation is kept:
		// TestFailedRefreshKeepsGeneration.)
		rec := &trace.Recorder{}
		prog := yatl.MustParse(twoSourceProgram)
		betas := betaStore("bee")
		neighbour := source.NewFault("src1", alphaStore("ant", "asp"))
		m := New(prog, nil, WithDemandDriven(true),
			WithSources(neighbour, source.Static("src2", betas)))
		if _, err := m.Ask(`X`); err != nil {
			t.Fatalf("warm ask: %v", err)
		}
		neighbour.SetErr(errors.New("down"))
		if err := m.RefreshSource(trace.WithSink(ctx, rec), "src2"); err != nil {
			t.Fatal(err)
		}
		wantFallback(t, rec, ReasonFetchFailed)
		// The next ask sees the degraded world: beta only.
		got, err := m.Ask(`X`)
		if err != nil {
			t.Fatal(err)
		}
		want := answersFor(t, prog, tree.NewStore(), betas, `X`)
		if answersKey(t, got) != want {
			t.Fatalf("degraded answers wrong:\n%s\nwant:\n%s", answersKey(t, got), want)
		}
		if st := m.Stats(); st.Generation != 2 || st.DeltaFallbacks != 1 {
			t.Errorf("stats = %+v, want one wholesale fallback", st)
		}
	})

	t.Run("no-baseline", func(t *testing.T) {
		// A restored generation is warm but pins no input store: its
		// groups were computed from the donor's inputs, which this
		// process never saw — and here they have changed since. What the
		// recipient fetched for itself before the restore is no baseline
		// for the donor's groups either.
		prog := yatl.MustParse(twoSourceProgram)
		betas := betaStore("bee")
		donor := New(prog, nil, WithDemandDriven(true),
			WithSources(source.Static("src1", alphaStore("ant", "asp")), source.Static("src2", betas)))
		if _, err := donor.Ask(`X`); err != nil {
			t.Fatal(err)
		}
		snap, err := donor.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		newAlphas := alphaStore("ant", "auk")
		m := New(prog, nil, WithDemandDriven(true),
			WithSources(source.Static("src1", newAlphas), source.Static("src2", betas)))
		if _, err := m.Ask(`X`, "Pb"); err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if err := m.RefreshSource(trace.WithSink(ctx, rec), "src1"); err != nil {
			t.Fatal(err)
		}
		wantFallback(t, rec, ReasonNoBaseline)
		equivalent(t, m, twoSourceProgram, nil, newAlphas, betas)
	})

	t.Run("slice-run-error", func(t *testing.T) {
		// The re-run raises: the affected groups are dropped and the
		// error surfaces; once the function heals, the next ask
		// recomputes from scratch.
		var failures atomic.Int64
		failures.Store(1 << 30)
		opts := []engine.Option{engine.WithRegistry(boomRegistry(&failures))}
		newAlphas := alphaStore("ant", "asp", "auk")
		m, _, rec, err := run(t, boomProgram, opts, nil,
			func(f *source.Fault) { f.SetStore(newAlphas) })
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want the raised engine error", err)
		}
		wantFallback(t, rec, ReasonSliceRunError)
		failures.Store(0)
		equivalent(t, m, boomProgram, opts, newAlphas, nil)
	})
}

// A nil context is normalized before it can reach the source
// decorators, so a refresh through the conventional
// timeout/retry/breaker chain works and is still absorbed in place.
func TestRefreshSourceNilContextThroughDecorators(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	clock := source.NewFakeClock()
	fault := source.NewFault("src1", alphaStore("ant", "asp")).WithClock(clock)
	chain := source.WithBreaker(
		source.WithRetry(
			source.WithTimeout(fault, time.Second),
			source.RetryOptions{MaxAttempts: 2, Clock: clock, Jitter: -1}),
		source.BreakerOptions{Clock: clock})
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(chain, source.Static("src2", betaStore("bee"))))
	if got, err := m.Ask(`X`, "Pa"); err != nil || len(got) != 2 {
		t.Fatalf("warm Pa = %d, %v", len(got), err)
	}
	grown := alphaStore("ant", "asp", "auk")
	fault.SetStore(grown)
	if err := m.RefreshSource(nil, "src1"); err != nil {
		t.Fatalf("nil-ctx refresh: %v", err)
	}
	got, err := m.Ask(`X`, "Pa")
	if err != nil || len(got) != 3 {
		t.Fatalf("post-refresh Pa = %d, %v; want 3", len(got), err)
	}
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
		t.Errorf("refresh through the chain should be absorbed in place: %+v", st)
	}
}

// Refreshing a source no configured source carries is a typed
// not-found, whatever the mediator has cached.
func TestNotFoundErrorShapes(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(source.Static("src1", alphaStore("ant")), source.Static("src2", betaStore("bee"))))
	if _, err := m.Ask(`X`); err != nil {
		t.Fatal(err)
	}
	var nf *NotFoundError
	err := m.RefreshSource(nil, "nope")
	if !errors.As(err, &nf) || nf.Name != "nope" {
		t.Fatalf("RefreshSource(nope) = %v, want *NotFoundError{nope}", err)
	}
	if msg := err.Error(); msg != `mediator: no source named "nope"` {
		t.Errorf("error %q does not follow the not-found shape", msg)
	}
}

// The delta events reach both renderers: EXPLAIN profiles get per-
// refresh `delta:` lines with the aggregate counts, and mediator.Stats
// (the document yatserve and yatprof share) reports the same counters.
func TestDeltaTraceAndStatsRender(t *testing.T) {
	prof := trace.NewProfile()
	prog := yatl.MustParse(twoSourceProgram)
	fault := source.NewFault("src1", alphaStore("ant", "asp"))
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(fault, source.Static("src2", betaStore("bee"))))
	ctx := trace.WithSink(context.Background(), prof)
	if _, err := m.AskContext(ctx, `X`); err != nil {
		t.Fatal(err)
	}
	fault.SetStore(alphaStore("ant", "asp", "auk"))
	if err := m.RefreshSource(ctx, "src1"); err != nil {
		t.Fatal(err)
	}
	fault.SetErr(errors.New("down"))
	if err := m.RefreshSource(ctx, "src1"); err == nil {
		t.Fatal("refresh of a source that is down succeeded")
	}

	var sb strings.Builder
	if err := prof.Render(&sb, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"deltas: applied=1 fallbacks=1",
		"delta: source=src1",
		"inserted=1 deleted=0 changed=0 patched-rules=1",
		"reason=" + ReasonFetchFailed,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("profile missing %q:\n%s", want, sb.String())
		}
	}

	st := m.Stats()
	if st.DeltaRuns != 1 || st.DeltaFallbacks != 1 || st.PatchedRules != 1 {
		t.Fatalf("stats = runs=%d fallbacks=%d patched=%d, want 1/1/1",
			st.DeltaRuns, st.DeltaFallbacks, st.PatchedRules)
	}
	sb.Reset()
	if err := st.Render(&sb, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "deltas: runs=1 fallbacks=1 patched-rules=1") {
		t.Errorf("stats render missing the deltas line:\n%s", sb.String())
	}
	js, err := st.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"delta_runs": 1`, `"delta_fallbacks": 1`, `"patched_rules": 1`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("stats JSON missing %q:\n%s", want, js)
		}
	}

	// Aggregate (the pool path behind yatserve /stats) sums them.
	agg := Aggregate(st, st)
	if agg.DeltaRuns != 2 || agg.DeltaFallbacks != 2 || agg.PatchedRules != 2 {
		t.Errorf("aggregate = %d/%d/%d, want 2/2/2", agg.DeltaRuns, agg.DeltaFallbacks, agg.PatchedRules)
	}
}

// Asks racing RefreshSource between two worlds — run under -race.
// Every answer set must be exactly one of the worlds, never a blend of
// a half-applied refresh.
func TestAskRefreshSourceRace(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	worldA := alphaStore("ant", "asp")
	worldB := alphaStore("ant", "asp", "auk") // A→B inserts, B→A deletes
	betas := betaStore("bee", "boa")
	wantA := answersFor(t, prog, worldA, betas, `X`)
	wantB := answersFor(t, prog, worldB, betas, `X`)

	fault := source.NewFault("src1", worldA)
	m := New(prog, nil, WithDemandDriven(true),
		WithSources(fault, source.Static("src2", betas)))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the refresher
		defer wg.Done()
		watch := &cacheWatch{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				fault.SetStore(worldB)
			} else {
				fault.SetStore(worldA)
			}
			if err := m.RefreshSource(context.Background(), "src1"); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
			watch.look(t, m)
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
				if key != wantA && key != wantB {
					t.Errorf("blended answer set:\n%s", key)
					return
				}
				m.Stats()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	<-time.After(10 * time.Millisecond)
	close(stop)
	<-done
}
