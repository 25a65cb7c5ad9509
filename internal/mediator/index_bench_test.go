package mediator

import (
	"fmt"
	"testing"

	"yat/internal/pattern"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// fillMemo asks 512 separately parsed copies of a pattern — the memo is
// keyed by parsed-pattern identity — so the ask memo sits at its cap
// and every later pre-parsed ask is a demand hit: cached group, matcher,
// sort, a refused memo write.
func fillMemo(tb testing.TB, m *Mediator, pat, functor string) {
	tb.Helper()
	for i := 0; i <= maxAskMemo; i++ {
		if _, err := m.AskPattern(yatl.MustParsePattern(pat), functor); err != nil {
			tb.Fatal(err)
		}
	}
	if g := m.state().dgen; len(g.cache.memo) != maxAskMemo {
		tb.Fatalf("memo holds %d asks, want it at its cap of %d", len(g.cache.memo), maxAskMemo)
	}
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
			candidates += len(m.state().dgen.cache.candidates(pats[i], "Pview1"))
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
