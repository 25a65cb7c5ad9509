package mediator

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// The drift sequence: ask Pa, let src1 change, ask a cold Pb from 1, 4
// or 8 askers at once, refresh src1. The cold misses must not move the
// baseline the refresh diffs against, or the change is diffed away and
// Pa stays stale for good.
func TestRefreshAfterColdMissSeesEarlierChange(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	betas := betaStore("bee", "boa")
	grown := alphaStore("ant", "asp", "auk")
	for _, par := range askWidths {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			fault := source.NewFault("src1", alphaStore("ant", "asp"))
			m := New(prog, nil, WithDemandDriven(true), WithSources(fault, source.Static("src2", betas)))
			watch := &cacheWatch{}
			if got, err := m.Ask(`X`, "Pa"); err != nil || len(got) != 2 {
				t.Fatalf("warm Pa = %d answers, %v", len(got), err)
			}
			fault.SetStore(grown)
			concurrently(par, func() {
				if got, err := m.Ask(`X`, "Pb"); err != nil || len(got) != 2 {
					t.Errorf("cold Pb = %d answers, %v", len(got), err)
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			watch.mutates(t, m, "RefreshSource", func() {
				if err := m.RefreshSource(context.Background(), "src1"); err != nil {
					t.Fatalf("refresh: %v", err)
				}
			})
			pa, err := m.Ask(`X`, "Pa")
			if want := answersFor(t, prog, grown, nil, `X`); err != nil || answersKey(t, pa) != want {
				t.Fatalf("Pa after the refresh: %v\n got:\n%s\nwant:\n%s", err, answersKey(t, pa), want)
			}
			all, err := m.Ask(`X`)
			if want := answersFor(t, prog, grown, betas, `X`); err != nil || answersKey(t, all) != want {
				t.Fatalf("X after the refresh: %v\n got:\n%s\nwant:\n%s", err, answersKey(t, all), want)
			}
			if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 || st.PatchedRules != 1 {
				t.Errorf("delta stats = %d/%d/%d, want the insert patched into Alpha (1/0/1)",
					st.DeltaRuns, st.DeltaFallbacks, st.PatchedRules)
			}
			watch.look(t, m)
		})
	}
}

// A generation fetches once: cold misses after the first run over the
// pinned snapshot, and only RefreshSource, Invalidate and a fetch that
// pinned nothing (every source failed) fetch again.
func TestOneFetchPerGeneration(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram + `
rule Gamma {
  head Pc(N) = item < -> name -> N >
  from A = alpha < -> name -> N >
}
`)
	store := alphaStore("ant", "asp")
	for _, e := range betaStore("bee").Entries() {
		store.Put(e.Name, e.Tree)
	}
	var fetches atomic.Int64
	var down atomic.Bool
	src := source.FromFunc("src", func(context.Context) (*tree.Store, error) {
		fetches.Add(1)
		if down.Load() {
			return nil, errors.New("down")
		}
		return store, nil
	})
	m := New(prog, nil, WithDemandDriven(true), WithSources(src))
	watch := &cacheWatch{}
	step := func(what string, want int64, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := fetches.Load(); got != want {
			t.Fatalf("%s: %d fetches so far, want %d", what, got, want)
		}
		watch.look(t, m)
	}
	ask := func(functor string) func() error {
		return func() error { _, err := m.Ask(`X`, functor); return err }
	}
	step("first cold ask", 1, ask("Pa"))
	step("second cold ask", 1, ask("Pb"))
	step("third cold ask", 1, ask("Pc"))
	step("refresh", 2, func() error { return m.RefreshSource(context.Background(), "src") })
	m.Invalidate()
	step("ask after Invalidate", 3, ask("Pa"))
	step("cold ask in the new generation", 3, ask("Pb"))

	// An all-sources-failed fetch pins nothing: the next ask retries.
	m.Invalidate()
	down.Store(true)
	var fe *FetchError
	if _, err := m.Ask(`X`, "Pa"); !errors.As(err, &fe) {
		t.Fatalf("ask over a dead source = %v, want *FetchError", err)
	}
	down.Store(false)
	step("ask after the failed fetch", 5, ask("Pa"))
	step("cold ask over the recovered pin", 5, ask("Pc"))
}

// Reload carries the pin with the groups it carries: a refresh after a
// reload still has the carried groups' baseline to diff against.
func TestReloadCarriesBaseline(t *testing.T) {
	prog := yatl.MustParse(twoSourceProgram)
	extended := yatl.MustParse(twoSourceProgram + `
rule Gamma {
  head Pc(N) = item < -> name -> N >
  from B = beta < -> name -> N >
}
`)
	betas := betaStore("bee")
	grown := alphaStore("ant", "asp", "auk")
	fault := source.NewFault("src1", alphaStore("ant", "asp"))
	m := New(prog, nil, WithDemandDriven(true), WithSources(fault, source.Static("src2", betas)))
	if _, err := m.Ask(`X`, "Pa"); err != nil {
		t.Fatal(err)
	}
	watch := &cacheWatch{}
	watch.mutates(t, m, "Reload", func() { m.Reload(extended) })
	if st := m.Stats(); st.CachedRules != 1 {
		t.Fatalf("reload carried %d rules, want Alpha alone", st.CachedRules)
	}
	fault.SetStore(grown)
	watch.mutates(t, m, "RefreshSource", func() {
		if err := m.RefreshSource(context.Background(), "src1"); err != nil {
			t.Fatal(err)
		}
	})
	pa, err := m.Ask(`X`, "Pa")
	if want := answersFor(t, prog, grown, nil, `X`); err != nil || answersKey(t, pa) != want {
		t.Fatalf("carried Pa after the refresh: %v\n got:\n%s\nwant:\n%s", err, answersKey(t, pa), want)
	}
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
		t.Errorf("delta stats = %d runs, %d fallbacks; want the carried group patched (1/0)",
			st.DeltaRuns, st.DeltaFallbacks)
	}
	watch.look(t, m)
}

// Stats.Sources renders the latest fetch: the error is that fetch's
// outcome, while a failed source keeps reporting the entries of its
// last successful contribution.
func TestSourceStatusKeepsLastEntries(t *testing.T) {
	fault := source.NewFault("src2", betaStore("bee", "boa"))
	m := New(yatl.MustParse(twoSourceProgram), nil, WithDemandDriven(true),
		WithSources(source.Static("src1", alphaStore("ant")), fault))
	want := func(entries int, failing bool) {
		t.Helper()
		m.Invalidate()
		if _, err := m.Ask(`X`, "Pa"); err != nil {
			t.Fatal(err)
		}
		src := m.Stats().Sources
		if len(src) != 2 || src[0].Name != "src1" || src[0].Entries != 1 || src[0].FetchErr != "" {
			t.Fatalf("sources = %+v, want a healthy src1 first", src)
		}
		if src[1].Name != "src2" || src[1].Entries != entries || (src[1].FetchErr != "") != failing {
			t.Errorf("src2 = %+v, want entries=%d failing=%v", src[1], entries, failing)
		}
	}
	want(2, false)
	fault.SetErr(errors.New("down"))
	want(2, true)
	want(2, true)
	fault.SetErr(nil)
	fault.SetStore(betaStore("bee"))
	want(1, false)
}
