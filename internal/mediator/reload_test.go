package mediator

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// versionedSelective is workload.SelectiveProgram with a version tag
// baked into each view's head, so an answer reveals which program
// edition produced it. tags[i] versions rule View(i+1); rules with
// equal tags print identically across editions.
func versionedSelective(tags ...string) string {
	var sb strings.Builder
	sb.WriteString("program selective\n")
	for i, tag := range tags {
		fmt.Fprintf(&sb, `
rule View%d {
  head Pview%d(SN) = view < -> tag -> %q, -> name -> SN, -> city -> C >
  from Pbr = brochure < -> number -> Num, -> title -> T,
                        -> model -> Year, -> desc -> D,
                        -> spplrs -*> supplier < -> name -> SN,
                                                 -> address -> Add > >
  let C = city(Add)
}
`, i+1, i+1, tag)
	}
	return sb.String()
}

const tagPattern = `view < -> tag -> TAG, -> name -> N, -> city -> C >`

// tagsOf collects the distinct TAG bindings of a response.
func tagsOf(t *testing.T, as []Answer) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, a := range as {
		v, ok := a.Binding["TAG"]
		if !ok {
			t.Fatalf("answer without TAG binding: %+v", a)
		}
		out[string(v.(tree.String))] = true
	}
	return out
}

// Reload on a demand-driven mediator keeps warm exactly the functor
// groups whose slices are textually unchanged, and evicts the rest.
func TestReloadPreservesUnchangedRules(t *testing.T) {
	v1 := yatl.MustParse(versionedSelective("v1", "v1", "v1"))
	v2 := yatl.MustParse(versionedSelective("v2", "v1", "v1")) // only View1 edited
	inputs := workload.BrochureStore(6, 2, 5, 11)

	m := New(v1, inputs, WithDemandDriven(true))
	for _, f := range []string{"Pview1", "Pview2"} {
		if _, err := m.Ask(tagPattern, f); err != nil {
			t.Fatalf("warming %s: %v", f, err)
		}
	}
	st := m.Stats()
	if st.CachedRules != 2 || st.SliceRuns != 2 {
		t.Fatalf("warmup: CachedRules=%d SliceRuns=%d, want 2/2", st.CachedRules, st.SliceRuns)
	}

	(&cacheWatch{}).mutates(t, m, "Reload", func() { m.Reload(v2) })
	st = m.Stats()
	if st.CachedRules != 1 {
		t.Fatalf("after reload: CachedRules=%d, want 1 (View2 warm, View1 evicted)", st.CachedRules)
	}
	if st.Generation != 2 {
		t.Fatalf("after reload: Generation=%d, want 2", st.Generation)
	}

	// The unchanged view answers from cache: no new slice run.
	got, err := m.Ask(tagPattern, "Pview2")
	if err != nil {
		t.Fatal(err)
	}
	if tags := tagsOf(t, got); !tags["v1"] || len(tags) != 1 {
		t.Fatalf("Pview2 after reload: tags %v, want {v1}", tags)
	}
	if runs := m.Stats().SliceRuns; runs != 2 {
		t.Fatalf("Pview2 after reload ran the engine (SliceRuns=%d, want 2)", runs)
	}

	// The edited view re-materializes under the new program.
	got, err = m.Ask(tagPattern, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if tags := tagsOf(t, got); !tags["v2"] || len(tags) != 1 {
		t.Fatalf("Pview1 after reload: tags %v, want {v2}", tags)
	}
	if runs := m.Stats().SliceRuns; runs != 3 {
		t.Fatalf("Pview1 after reload: SliceRuns=%d, want 3", runs)
	}
}

// A renamed or removed rule evicts its group even when some other
// group is untouched, and a full-materialization mediator reconverts
// wholesale on reload.
func TestReloadEdgeCases(t *testing.T) {
	inputs := workload.BrochureStore(4, 2, 4, 3)
	t.Run("removed-rule", func(t *testing.T) {
		v1 := yatl.MustParse(versionedSelective("v1", "v1"))
		v2 := yatl.MustParse(versionedSelective("v1")) // View2 removed
		m := New(v1, inputs, WithDemandDriven(true))
		if _, err := m.Ask(tagPattern, "Pview2"); err != nil {
			t.Fatal(err)
		}
		(&cacheWatch{}).mutates(t, m, "Reload", func() { m.Reload(v2) })
		if st := m.Stats(); st.CachedRules != 0 {
			t.Fatalf("CachedRules=%d, want 0 (Pview2's rule is gone)", st.CachedRules)
		}
		got, err := m.Ask(tagPattern, "Pview2")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("removed view still answers: %d answers", len(got))
		}
	})
	t.Run("full-mode", func(t *testing.T) {
		v1 := yatl.MustParse(versionedSelective("v1"))
		v2 := yatl.MustParse(versionedSelective("v2"))
		m := New(v1, inputs)
		if _, err := m.Ask(tagPattern); err != nil {
			t.Fatal(err)
		}
		m.Reload(v2)
		if st := m.Stats(); st.Materialized {
			t.Fatal("full-mode reload must drop the materialization")
		}
		got, err := m.Ask(tagPattern)
		if err != nil {
			t.Fatal(err)
		}
		if tags := tagsOf(t, got); !tags["v2"] || len(tags) != 1 {
			t.Fatalf("tags after reload: %v, want {v2}", tags)
		}
	})
}

// A Reload runs the program it installs. reloadDiff warms a mediator
// over one edition of a program, reloads it with another whose View1
// differs in head or in body text, and reports how its asks then
// differ from a full-mode mediator over the new edition; the check
// must catch the mutant that keeps the old compiled program across the
// reload. TestReloadSharesUnchangedGroups is the other half: what an
// unchanged rule had cached stays shared.
func TestReloadMutationDetected(t *testing.T) {
	v1 := versionedSelective("v1", "v1")
	for _, edit := range []struct{ name, to string }{
		{"head", versionedSelective("v2", "v1")},
		{"body", strings.Replace(v1, "supplier < -> name -> SN,", "supplier < -> address -> SN,", 1)},
	} {
		for _, demand := range []bool{true, false} {
			for _, mutant := range []bool{false, true} {
				diff := reloadDiff(t, v1, edit.to, demand, mutant)
				if caught := diff != ""; caught != mutant {
					t.Errorf("%s edit, demand=%v, mutant=%v: caught=%v: %s", edit.name, demand, mutant, caught, diff)
				}
			}
		}
	}
}

// reloadDiff reloads a mediator from one edition to the other and
// describes the first ask that then answers unlike the new edition, ""
// when none does.
func reloadDiff(t *testing.T, from, to string, demand, mutant bool) string {
	t.Helper()
	inputs := workload.BrochureStore(6, 2, 5, 11)
	m := New(yatl.MustParse(from), inputs, WithDemandDriven(demand))
	m.reloadKeepsCompiled = mutant
	for _, f := range []string{"Pview1", "Pview2"} {
		if _, err := m.Ask(tagPattern, f); err != nil {
			t.Fatal(err)
		}
	}
	m.Reload(yatl.MustParse(to))
	oracle := New(yatl.MustParse(to), inputs)
	for _, functors := range [][]string{{"Pview1"}, {"Pview2"}, nil} {
		got, err := m.Ask(tagPattern, functors...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Ask(tagPattern, functors...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(a, b Answer) bool { return a.MergeKey() == b.MergeKey() }) {
			return fmt.Sprintf("ask %v after the reload: %d answers, not the new edition's %d", functors, len(got), len(want))
		}
	}
	return ""
}

// The atomicity contract, pinned under the race detector with 1, 4
// and 8 askers: an Ask racing Reload observes the old program or the
// new one — every answer in one response carries the same version
// tag, never a mix.
func TestReloadAskRace(t *testing.T) {
	inputs := workload.BrochureStore(8, 2, 6, 17)
	editions := []*yatl.Program{
		yatl.MustParse(versionedSelective("v1", "v1")),
		yatl.MustParse(versionedSelective("v2", "v2")),
	}
	for _, par := range askWidths {
		for _, demand := range []bool{true, false} {
			t.Run(fmt.Sprintf("par%d-demand%v", par, demand), func(t *testing.T) {
				m := New(editions[0], inputs, WithDemandDriven(demand))
				const reloads = 40
				const asksPerWorker = 30
				var wg sync.WaitGroup
				var done atomic.Bool
				for w := 0; w < par; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < asksPerWorker; i++ {
							// No functor restriction: the answer spans
							// both rules, which is what makes a torn
							// reload observable as mixed tags.
							got, err := m.Ask(tagPattern)
							if err != nil {
								t.Errorf("ask: %v", err)
								return
							}
							if len(got) == 0 {
								t.Error("empty answer set")
								return
							}
							if tags := tagsOf(t, got); len(tags) != 1 {
								t.Errorf("mixed-generation answer: tags %v", tags)
								return
							}
						}
					}()
				}
				// Keep reloading while the askers run, with a floor of
				// `reloads` swaps so the test cannot pass vacuously.
				go func() { wg.Wait(); done.Store(true) }()
				n := 0
				for ; n < reloads || !done.Load(); n++ {
					m.Reload(editions[(n+1)%2])
					runtime.Gosched()
				}
				wg.Wait()
				if g := m.Generation(); g != int64(n+1) {
					t.Fatalf("generation %d, want %d", g, n+1)
				}
			})
		}
	}
}
