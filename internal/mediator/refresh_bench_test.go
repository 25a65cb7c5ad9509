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

// refreshCase is a warm mediator over PartitionedProgram(8), every view
// cached, whose one source switches between a base PartitionedStore of
// group entries per family and the same store with family 1 grown by
// five entries, and starts on the grown one if startGrown is set, else
// on the base. refresh(grown) is an insert, refresh(base) a delete; the
// other seven groups stay untouched.
func refreshCase(tb testing.TB, group int, startGrown bool) (m *Mediator, refresh func(*tree.Store), base, grown *tree.Store) {
	const families, changed = 8, 5
	prog := yatl.MustParse(workload.PartitionedProgram(families))
	base = workload.PartitionedStore(families, group)
	grown = base.Clone()
	for j := 0; j < changed; j++ {
		n, t := workload.PartitionedEntry(1, fmt.Sprintf("new%d", j), int64(group+j))
		grown.Put(n, t)
	}
	start := base
	if startGrown {
		start = grown
	}
	fault := source.NewFault("parts", start)
	m = New(prog, nil, WithDemandDriven(true), WithSources(fault))
	if _, err := m.Ask(`X`); err != nil {
		tb.Fatal(err)
	}
	refresh = func(s *tree.Store) {
		fault.SetStore(s)
		if err := m.RefreshSource(context.Background(), "parts"); err != nil {
			tb.Fatal(err)
		}
	}
	return m, refresh, base, grown
}

// BenchmarkRefresh is the cost of one RefreshSource on a warm mediator
// (refreshCase): family 1 grows by five entries (insert) or loses those
// five again (delete). group is the entries per family: 20, or 460, the
// size of a serve_lookup view. Each timed refresh is undone by an
// untimed one, so every iteration starts from the same warm cache.
func BenchmarkRefresh(b *testing.B) {
	for _, kind := range []string{"insert", "delete"} {
		for _, size := range []int{20, 460} {
			b.Run(fmt.Sprintf("%s/group=%d", kind, size), func(b *testing.B) {
				m, refresh, from, to := refreshCase(b, size, kind == "delete")
				want := size
				if kind == "delete" {
					from, to, want = to, from, size+5
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

// TestRefreshAllocs pins what a small refresh allocates: each call is
// one RefreshSource of BenchmarkRefresh's group=20 case, alternately
// its insert and its delete. A refresh matches the delta against the
// compiled rule bodies and runs the compiled program's slice; it
// compiles, checks and slices nothing (≈ 430 allocations, against ≈ 590
// when every refresh compiled the bodies and every slice run checked,
// grouped and compiled the program again). Under -race, whose sync.Pool
// drops a quarter of what it is given, the counts run higher (≈ 670
// and ≈ 820), and so does the ceiling.
func TestRefreshAllocs(t *testing.T) {
	_, refresh, base, grown := refreshCase(t, 20, false)
	next, other := grown, base
	n := testing.AllocsPerRun(20, func() {
		refresh(next)
		next, other = other, next
	})
	if n > refreshAllocBudget {
		t.Errorf("a refresh allocates %.0f times, want <= %.0f", n, refreshAllocBudget)
	}
	t.Logf("%.0f allocations per refresh", n)
}
