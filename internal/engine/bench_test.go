package engine

import (
	"fmt"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
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
			var j joiner
			if got := j.hashJoin(&tab, &sl, nil, as, bs); len(got) == 0 {
				b.Fatal("empty join")
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sl frameSlab
			if got := product(&tab, &sl, nil, as, bs); len(got) == 0 {
				b.Fatal("empty join")
			}
		}
	})
}

// Rules 1 and 2 over a large store, then over a small one in the
// scratch the large run left in the pool: Rule 2 groups a brochure's
// suppliers per car, so a partition that paid for the largest key set
// the scratch ever held would make the large run quadratic and the
// small run as slow as the large one's resets.
func BenchmarkLargeThenSmallRun(b *testing.B) {
	prog, err := yatl.Parse(yatl.SGMLToODMGSource)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4000, 8} {
		store := workload.BrochureStore(n, 3, max(4, n/4), 7)
		b.Run(fmt.Sprintf("brochures=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(prog, store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
