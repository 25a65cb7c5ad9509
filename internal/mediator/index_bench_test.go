package mediator

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"yat/internal/pattern"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// fillMemo asks separately parsed copies of a pattern — the memo is
// keyed by parsed-pattern identity — until the ask memo refuses one, at
// its bound in entries or in bytes, so every later pre-parsed ask is a
// demand hit: cached group, matcher, sort, a refused memo write.
func fillMemo(tb testing.TB, m *Mediator, pat, functor string) {
	tb.Helper()
	held := func() int { return m.state().dgen.cache.view().memo.Len() }
	for i := 0; i <= MaxAskMemo; i++ {
		before := held()
		if _, err := m.AskPattern(yatl.MustParsePattern(pat), functor); err != nil {
			tb.Fatal(err)
		}
		if held() == before {
			return
		}
	}
	tb.Fatalf("memo holds %d asks and took every one, want it at a bound", held())
}

// lookupPattern is serve_lookup's ask: one supplier of one view.
func lookupPattern(supplier int) string {
	return fmt.Sprintf(`view < -> name -> "Supplier %03d", -> city -> C, -> zip -> Z >`, supplier)
}

// lookupMediator is one serve_lookup lane: eight views of ≈ 460
// suppliers each, Pview1 cached and the memo full.
func lookupMediator(tb testing.TB) *Mediator {
	tb.Helper()
	m := New(yatl.MustParse(workload.SelectiveProgram(8)), workload.BrochureStore(400, 3, 500, 42), WithDemandDriven(true))
	fillMemo(tb, m, `view < -> name -> N, -> city -> C, -> zip -> Z >`, "Pview1")
	return m
}

// BenchmarkDemandHit is the cost of an ask past the ask memo.
//
//	point: 500 rotating point lookups in a ≈ 460-entry view — what
//	       ≈ 87 % of serve_lookup's asks pay. candidates/op is how many
//	       entries the leaf-path index leaves the matcher.
//	view:  the whole 100-entry view, which every serve_churn ask pays
//	       right after a refresh: match all, sort by (name, binding).
func BenchmarkDemandHit(b *testing.B) {
	b.Run("point", func(b *testing.B) {
		m := lookupMediator(b)
		pats := make([]*pattern.PTree, 500)
		candidates := 0
		for i := range pats {
			pats[i] = yatl.MustParsePattern(lookupPattern(i + 1))
			candidates += len(m.state().dgen.cache.view().candidates(pats[i], "Pview1"))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.AskPattern(pats[i%len(pats)], "Pview1"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(candidates)/float64(len(pats)), "candidates/op")
	})
	b.Run("view", func(b *testing.B) {
		m := New(yatl.MustParse(workload.PartitionedProgram(16)), workload.PartitionedStore(16, 100), WithDemandDriven(true))
		fillMemo(b, m, `X`, "Ppart1")
		pt := yatl.MustParsePattern(`X`)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out, err := m.AskPattern(pt, "Ppart1"); err != nil || len(out) != 100 {
				b.Fatalf("%d answers, %v", len(out), err)
			}
		}
	})
}

// BenchmarkAskParallel is the cost of hits asked from every P at once
// on one mediator over serve_churn's data (sixteen 100-entry views),
// idle and beside a refresh that loops as fast as it can (the grown
// store, then the base one again, every view rewritten each time):
// what the hit path's locks cost under contention, and how long a
// refresh or a re-run makes a hit wait.
//
//	memo:   one ask, repeated — the ask memo's hit (after a refresh,
//	        the first repeat is a demand hit that memoizes again).
//	demand: the same ask parsed 8192 times apart, so the memo, full
//	        (idle) or refilling (refreshing), rarely holds the key — a
//	        demand-cache hit: the whole Ppart1 view matched and sorted.
func BenchmarkAskParallel(b *testing.B) {
	const families = 16
	prog := yatl.MustParse(workload.PartitionedProgram(families))
	base, grown := churnStores(families, 100)
	for _, kind := range []string{"memo", "demand"} {
		for _, refreshing := range []bool{false, true} {
			name := kind + "/idle"
			if refreshing {
				name = kind + "/refreshing"
			}
			b.Run(name, func(b *testing.B) {
				fault := source.NewFault("parts", base)
				m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
				if _, err := m.Ask(`X`); err != nil { // every view cached
					b.Fatal(err)
				}
				pats := []*pattern.PTree{yatl.MustParsePattern(`X`)}
				if kind == "demand" {
					fillMemo(b, m, `X`, "Ppart1")
					pats = make([]*pattern.PTree, 8192)
					for i := range pats {
						pats[i] = yatl.MustParsePattern(`X`)
					}
				}
				stop, refreshes := make(chan struct{}), make(chan int)
				go func() {
					n := 0
					for ; refreshing; n++ {
						select {
						case <-stop:
							refreshes <- n
							return
						default:
						}
						fault.SetStore([]*tree.Store{grown, base}[n%2])
						if err := m.RefreshSource(context.Background(), "parts"); err != nil {
							b.Error(err)
						}
					}
					<-stop
					refreshes <- n
				}()
				var next atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						pt := pats[int(next.Add(1))%len(pats)]
						if out, err := m.AskPattern(pt, "Ppart1"); err != nil || len(out) < 100 {
							b.Errorf("%d answers, %v", len(out), err)
							return
						}
					}
				})
				b.StopTimer()
				close(stop)
				b.ReportMetric(float64(<-refreshes), "refreshes")
			})
		}
	}
}
