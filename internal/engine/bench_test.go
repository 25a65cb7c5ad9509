package engine

import (
	"fmt"
	"testing"

	"yat/internal/tree"
)

// Ablation: the binding join strategy — hash join vs the naive
// Cartesian product with consistency filtering (Rule 3's shape), over
// frames of two 400-binding lists sharing one slot.
func BenchmarkJoinStrategies(b *testing.B) {
	var tab values
	tab.reset()
	mk := func(n, payload int) []frame {
		out := make([]frame, n)
		for i := range out {
			out[i] = make(frame, 3)
			out[i][0] = tab.add(tree.Int(int64(i % 50)))
			out[i][payload] = tab.add(tree.String(fmt.Sprintf("row-%d", i)))
		}
		return out
	}
	as, bs := mk(400, 1), mk(400, 2)
	b.Run("hash-join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sl frameSlab
			if got := hashJoin(&tab, as, bs, &sl); len(got) == 0 {
				b.Fatal("empty join")
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sl frameSlab
			if got := product(&tab, as, bs, &sl); len(got) == 0 {
				b.Fatal("empty join")
			}
		}
	})
}
