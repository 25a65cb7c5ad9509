package mediator

import (
	"context"
	"fmt"
	"testing"

	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// BenchmarkRefresh is the cost of one RefreshSource on a warm mediator
// over PartitionedProgram(8), every view cached: family 1 grows by five
// entries (insert) or loses those five again (delete), and the other
// seven groups stay untouched. group is the entries per family: 20, or
// 460, the size of a serve_lookup view. Each timed refresh is undone by
// an untimed one, so every iteration starts from the same warm cache.
func BenchmarkRefresh(b *testing.B) {
	const families, changed = 8, 5
	prog := yatl.MustParse(workload.PartitionedProgram(families))
	ctx := context.Background()
	for _, kind := range []string{"insert", "delete"} {
		for _, size := range []int{20, 460} {
			b.Run(fmt.Sprintf("%s/group=%d", kind, size), func(b *testing.B) {
				base := workload.PartitionedStore(families, size)
				grown := base.Clone()
				for j := 0; j < changed; j++ {
					n, t := workload.PartitionedEntry(1, fmt.Sprintf("new%d", j), int64(size+j))
					grown.Put(n, t)
				}
				from, to, want := base, grown, size
				if kind == "delete" {
					from, to, want = grown, base, size+changed
				}
				fault := source.NewFault("parts", from)
				m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
				if _, err := m.Ask(`X`); err != nil {
					b.Fatal(err)
				}
				refresh := func(s *tree.Store) {
					fault.SetStore(s)
					if err := m.RefreshSource(ctx, "parts"); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					refresh(to)
					b.StopTimer()
					refresh(from)
					b.StartTimer()
				}
				b.StopTimer()
				if got, err := m.Ask(`X`, "Ppart1"); err != nil || len(got) != want {
					b.Fatalf("Ppart1: %d answers, %v; want %d", len(got), err, want)
				}
			})
		}
	}
}
