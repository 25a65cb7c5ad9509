package mediator

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"yat/internal/engine"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// checkInvariants verifies what every reader of the demand cache
// relies on: a group stands for exactly its functor's construct rules,
// no entry carries another functor's name, and the bucket lists each
// identity once.
func checkInvariants(t testing.TB, st *progState) {
	t.Helper()
	for f, g := range st.dgen.cache.view().groups {
		rules := 0
		for _, r := range st.comp.Slice(f).Construct {
			if r.Head.Functor == f {
				rules++
			}
		}
		if rules != g.rules {
			t.Errorf("group %s: stands for %d rules, its slice constructs it by %d", f, g.rules, rules)
		}
		seen := map[string]bool{}
		for i, e := range g.bucket {
			if e.Name.Functor != f {
				t.Errorf("group %s: bucket[%d] = %s, a name outside the group", f, i, e.Name)
			}
			if key := e.Name.Key(); seen[key] {
				t.Errorf("group %s: bucket[%d] = %s, listed twice", f, i, e.Name)
			} else {
				seen[key] = true
			}
		}
	}
}

// cacheWatch looks at a mediator's current demand cache between the
// steps of a test: every look checks the invariants under the
// generation lock and that the cache's version has not moved
// backwards since the previous look at the same cache.
type cacheWatch struct {
	cache *demandCache
	ver   uint64
}

// look returns the version of the cache's view and the size of its ask
// memo. A step that mutated the cache shows as a larger version and —
// when no ask ran since — an empty memo.
func (w *cacheWatch) look(t testing.TB, m *Mediator) (ver uint64, memo int) {
	t.Helper()
	st := m.state()
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()
	checkInvariants(t, st)
	v := g.cache.view()
	if g.cache == w.cache && v.ver < w.ver {
		t.Errorf("cache version went from %d back to %d", w.ver, v.ver)
	}
	w.cache, w.ver = g.cache, v.ver
	return v.ver, v.memo.Len()
}

// mutates runs one step that must change the cache and checks it
// bumped the version and emptied the ask memo.
func (w *cacheWatch) mutates(t testing.TB, m *Mediator, what string, step func()) {
	t.Helper()
	before, _ := w.look(t, m)
	step()
	if after, memo := w.look(t, m); after <= before || memo != 0 {
		t.Errorf("%s: version %d -> %d with %d memoized asks, want a bump and an empty memo", what, before, after, memo)
	}
}

// evictProgram is twoSourceProgram with Alpha's name passed through
// maybe_boom (boomRegistry): while `failures` is positive a slice run
// that reaches the alpha named "auk" raises, so a refresh that has to
// re-run Alpha fails and evicts Pa — and only Pa, the one partial
// eviction the cache still performs (ReasonSliceRunError).
const evictProgram = `
program evict

rule Alpha {
  head Pa(N) = item < -> name -> V >
  from A = alpha < -> name -> N >
  let V = maybe_boom(N)
}

rule Beta {
  head Pb(N) = item < -> name -> N >
  from B = beta < -> name -> N >
}
`

// Every mutator bumps the version and clears the ask memo; an eviction
// of nothing, an empty delta and a memo write into a superseded view
// change nothing.
func TestCacheMutatorsBumpVersion(t *testing.T) {
	var failures atomic.Int64
	fault := source.NewFault("src1", alphaStore("ant", "asp"))
	m := New(yatl.MustParse(evictProgram), nil, WithDemandDriven(true),
		engine.WithRegistry(boomRegistry(&failures)),
		WithSources(fault, source.Static("src2", betaStore("bee"))))
	w := &cacheWatch{}
	ask := func() {
		t.Helper()
		for _, f := range []string{"Pa", "Pb"} {
			if _, err := m.Ask(`X`, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh := func(names ...string) func() {
		return func() {
			fault.SetStore(alphaStore(names...))
			if err := m.RefreshSource(context.Background(), "src1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.mutates(t, m, "cold fill (commit)", func() {
		if _, err := m.Functors(); err != nil { // fills without memoizing
			t.Fatal(err)
		}
	})
	ask() // refill the memo so the next step has something to clear
	w.mutates(t, m, "insert re-run (commit)", refresh("ant", "asp", "auk"))
	ask()
	w.mutates(t, m, "delete re-run (commit)", refresh("ant", "auk"))
	ask()
	w.mutates(t, m, "failed re-run (evict)", func() {
		failures.Store(1 << 30)
		defer failures.Store(0)
		fault.SetStore(alphaStore("auk"))
		if err := m.RefreshSource(context.Background(), "src1"); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("refresh = %v, want the raised engine error", err)
		}
		if got := m.Stats().CachedRules; got != 1 {
			t.Fatalf("the failed re-run left %d rules cached, want Beta alone", got)
		}
	})
	ask()
	stale := m.state().dgen.cache.view()
	w.mutates(t, m, "Reload (carryOver)", func() { m.Reload(yatl.MustParse(evictProgram)) })

	ask()
	before, memo := w.look(t, m)
	if memo == 0 {
		t.Fatal("vacuous: the asks memoized nothing")
	}
	g := m.state().dgen
	g.cache.evict("Pnone")
	refresh("auk")() // an empty delta
	memoize(stale.memo, askKey{}, formAnswers, nil, nil)
	if after, kept := w.look(t, m); after != before || kept != memo {
		t.Errorf("no-op steps moved the cache: version %d -> %d, memo %d -> %d", before, after, memo, kept)
	}
}

// Reload shares an unchanged group with the old generation instead of
// copying it, and the sharing is safe: an ask that took its view from
// the old generation keeps its original bucket after a refresh of the
// new generation rewrites the group.
func TestReloadSharesUnchangedGroups(t *testing.T) {
	prog := yatl.MustParse(workload.PartitionedProgram(2))
	base := workload.PartitionedStore(2, 3)
	fault := source.NewFault("parts", base)
	m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
	want, err := m.Ask(`X`, "Ppart1")
	if err != nil || len(want) != 3 {
		t.Fatalf("warm ask = %d answers, %v", len(want), err)
	}
	old := m.state()
	// The in-flight ask: its view of the old generation, taken before
	// the reload.
	view, hit, _, err := m.ensureDemand(context.Background(), old, nil, []string{"Ppart1"})
	if err != nil || !hit || len(view) != 3 {
		t.Fatalf("view: %d entries, hit=%v err=%v", len(view), hit, err)
	}
	original := append([]tree.StoreEntry(nil), view...)

	w := &cacheWatch{}
	w.mutates(t, m, "Reload", func() { m.Reload(yatl.MustParse(workload.PartitionedProgram(2))) })
	next := m.state()
	if next.dgen.cache.view().groups["Ppart1"] != old.dgen.cache.view().groups["Ppart1"] {
		t.Fatal("the unchanged group was copied, not shared with the old generation")
	}

	grown := base.Clone()
	n, tr := workload.PartitionedEntry(1, "new", 3)
	grown.Put(n, tr)
	fault.SetStore(grown)
	w.mutates(t, m, "insert re-run", func() {
		if err := m.RefreshSource(context.Background(), "parts"); err != nil {
			t.Fatal(err)
		}
	})
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("refresh was not absorbed in place: %+v", st)
	}
	if got, err := m.Ask(`X`, "Ppart1"); err != nil || len(got) != 4 {
		t.Fatalf("new generation after the refresh: %d answers, %v", len(got), err)
	}

	if len(view) != 3 || len(old.dgen.cache.view().bucket("Ppart1")) != 3 {
		t.Fatalf("the refresh reached the old generation: view %d, bucket %d entries, want 3",
			len(view), len(old.dgen.cache.view().bucket("Ppart1")))
	}
	for i, e := range view {
		if e.Tree != original[i].Tree || e.Name.Key() != original[i].Name.Key() {
			t.Errorf("in-flight view[%d] changed from %s to %s", i, original[i].Name, e.Name)
		}
	}
	checkInvariants(t, old)
}

// churnStores are a base PartitionedStore and the same store grown by
// one entry in every family: refreshing from one to the other rewrites
// every cached group in one commit (an insert one way, a delete the
// other), so an ask over all of them that read a
// half-published cache would mix the two worlds.
func churnStores(families, per int) (base, grown *tree.Store) {
	base = workload.PartitionedStore(families, per)
	grown = base.Clone()
	for fam := 1; fam <= families; fam++ {
		n, tr := workload.PartitionedEntry(fam, "new", int64(per))
		grown.Put(n, tr)
	}
	return base, grown
}

// Memo and demand hits read the published view without a lock while a
// refresh loops beside them: every reply is byte for byte the
// full-mode oracle's answer over the store before or after a refresh,
// never a mix, and no hit ever turns into a miss. Run it under -race:
// a writer that edits a map it has already published is a data race
// there, and a mixed answer everywhere.
func TestLockFreeHitsAcrossRefresh(t *testing.T) {
	const families, askers, asks = 16, 8, 300
	prog := yatl.MustParse(workload.PartitionedProgram(families))
	base, grown := churnStores(families, 5)
	oracle := func(store *tree.Store) string {
		got, err := New(prog, store).Ask(`X`)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(mergeKeys(got), "\n")
	}
	before, after := oracle(base), oracle(grown)
	var seenBefore, seenAfter atomic.Int64

	fault := source.NewFault("parts", base)
	m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
	if _, err := m.Ask(`X`); err != nil { // the one cold fill
		t.Fatal(err)
	}
	parsed := yatl.MustParsePattern(`X`)

	stop := make(chan struct{})
	refreshed := make(chan int)
	go func() {
		n := 0
		defer func() { refreshed <- n }()
		for {
			for _, store := range []*tree.Store{grown, base} {
				select {
				case <-stop:
					return
				default:
				}
				fault.SetStore(store)
				if err := m.RefreshSource(context.Background(), "parts"); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < askers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				ask := func() ([]Answer, error) { return m.Ask(`X`) }
				if (w+i)%2 == 1 {
					// A parsed pattern is not memoized: a demand hit.
					ask = func() ([]Answer, error) { return m.AskPattern(parsed) }
				}
				got, err := ask()
				if err != nil {
					t.Errorf("ask: %v", err)
					return
				}
				switch key := strings.Join(mergeKeys(got), "\n"); key {
				case before:
					seenBefore.Add(1)
				case after:
					seenAfter.Add(1)
				default:
					t.Errorf("asker %d, ask %d: a reply that is neither world's:\n%s", w, i, key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-refreshed; n < 2 || seenBefore.Load() == 0 || seenAfter.Load() == 0 {
		t.Fatalf("vacuous: %d refreshes ran beside the asks, which saw the base store %d times and the grown one %d",
			n, seenBefore.Load(), seenAfter.Load())
	}
	st := m.Stats()
	if st.CacheMisses != 1 || st.MemoHits == 0 || st.CacheHits == st.MemoHits {
		t.Errorf("misses=%d hits=%d memo hits=%d: want the cold fill's one miss, then memo and demand hits alike",
			st.CacheMisses, st.CacheHits, st.MemoHits)
	}
	checkInvariants(t, m.state())
}
