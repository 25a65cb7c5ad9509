package yat

// The incremental-refresh performance gate. A refresh that touches a
// small fraction of one source's entries must beat wholesale
// re-materialization by a wide margin — that is the whole point of the
// delta path. The gate is env-gated like the soak (YAT_DELTA_BENCH=1),
// runs the partitioned workload (k independent rule families, so a
// delta in one family leaves k-1 cached groups untouched), and asserts
// the ratio floor. The refresh's absolute cost is the benchmark's
// mediator.refresh_ms_p50 (go run ./bench, workload serve_churn).

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"yat/internal/mediator"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

const (
	deltaBenchFamilies = 16
	deltaBenchPerFam   = 100
	deltaBenchGrow     = 5 // < 10% of one family, far under 10% of the source
	deltaBenchRounds   = 7
	deltaBenchFloor    = 3.0 // delta refresh must be at least this much faster
)

func grownPartitionedStore(base *tree.Store, round int) *tree.Store {
	s := base.Clone()
	for j := 0; j < deltaBenchGrow; j++ {
		n, t := workload.PartitionedEntry(1, fmt.Sprintf("g%02d_%02d", round, j),
			int64(deltaBenchPerFam+round*deltaBenchGrow+j))
		s.Put(n, t)
	}
	return s
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// TestDeltaBenchGate measures, per round, the wall time of absorbing a
// refresh that grows family 1 by deltaBenchGrow entries and re-asking
// every family — once through RefreshSource (the delta path) and once
// through Invalidate (full re-materialization) — and asserts the
// median speedup stays above the floor.
func TestDeltaBenchGate(t *testing.T) {
	if os.Getenv("YAT_DELTA_BENCH") == "" {
		t.Skip("set YAT_DELTA_BENCH=1 to run the delta-refresh performance gate")
	}
	prog := yatl.MustParse(workload.PartitionedProgram(deltaBenchFamilies))
	base := workload.PartitionedStore(deltaBenchFamilies, deltaBenchPerFam)
	ctx := context.Background()

	askAll := func(t *testing.T, m *mediator.Mediator) {
		t.Helper()
		for fam := 1; fam <= deltaBenchFamilies; fam++ {
			got, err := m.Ask(`X`, fmt.Sprintf("Ppart%d", fam))
			if err != nil {
				t.Fatalf("ask Ppart%d: %v", fam, err)
			}
			if len(got) < deltaBenchPerFam {
				t.Fatalf("Ppart%d = %d answers, want >= %d", fam, len(got), deltaBenchPerFam)
			}
		}
	}

	var deltaTimes, fullTimes []time.Duration
	for round := 0; round < deltaBenchRounds; round++ {
		grown := grownPartitionedStore(base, round)

		// Delta lane: warm untimed, then time SetStore + RefreshSource +
		// re-ask of every family.
		fault := source.NewFault("src", base)
		m := mediator.New(prog, nil, mediator.WithDemandDriven(true), mediator.WithSources(fault))
		askAll(t, m)
		start := time.Now()
		fault.SetStore(grown)
		if err := m.RefreshSource(ctx, "src"); err != nil {
			t.Fatalf("refresh: %v", err)
		}
		askAll(t, m)
		deltaTimes = append(deltaTimes, time.Since(start))
		if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
			t.Fatalf("delta lane was not absorbed in place: %+v", st)
		}

		// Full lane: identical warm state, wholesale invalidation.
		fault2 := source.NewFault("src", base)
		m2 := mediator.New(prog, nil, mediator.WithDemandDriven(true), mediator.WithSources(fault2))
		askAll(t, m2)
		start = time.Now()
		fault2.SetStore(grown)
		m2.Invalidate()
		askAll(t, m2)
		fullTimes = append(fullTimes, time.Since(start))
	}

	deltaMed, fullMed := median(deltaTimes), median(fullTimes)
	speedup := float64(fullMed) / float64(deltaMed)
	t.Logf("delta median %v, full median %v, speedup %.1fx (floor %.1fx)",
		deltaMed, fullMed, speedup, deltaBenchFloor)

	if speedup < deltaBenchFloor {
		t.Fatalf("delta refresh speedup %.2fx below the %.1fx floor (delta %v, full %v)",
			speedup, deltaBenchFloor, deltaMed, fullMed)
	}
}
