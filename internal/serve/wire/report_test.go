package wire

import (
	"testing"
	"time"
)

// TestPercentileNearestRank pins the whole small-n surface against
// the doc comment's definition: nearest-rank, rank = ceil(n·p/100),
// 1-indexed. The divergent cases are where the old round-half-up
// arithmetic picked rank round(n·p/100) instead — e.g. p95 of 11
// samples (10.45 → ceil 11, round 10) and p99 of 51 (50.49 → ceil
// 51, round 50).
func TestPercentileNearestRank(t *testing.T) {
	// seq(n) = [1ms, 2ms, ..., n ms], so the expected value IS the
	// expected 1-indexed rank.
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		rank int
	}{
		{1, 50, 1}, {1, 99, 1}, {1, 100, 1},
		{2, 50, 1}, // ceil(1.0) = 1; round-half-up said 1 too, but by accident
		{2, 51, 2},
		{3, 50, 2},
		{4, 50, 2}, // ceil(2.0) = 2
		{4, 75, 3},
		{5, 50, 3},
		{10, 90, 9},
		{10, 95, 10},
		{11, 95, 11}, // 10.45: ceil 11, round-half-up 10 — the off-by-one
		{51, 99, 51}, // 50.49: ceil 51, round-half-up 50
		{100, 50, 50},
		{100, 99, 99},
		{100, 100, 100},
	}
	for _, c := range cases {
		got := Percentile(seq(c.n), c.p)
		want := time.Duration(c.rank) * time.Millisecond
		if got != want {
			t.Errorf("Percentile(n=%d, p=%g) = %v, want rank %d (%v)", c.n, c.p, got, c.rank, want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
}

// A zero-request window condenses to an all-zero summary — no NaN,
// no Inf, no panic (the yatload exit-code-3 path serializes this).
func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (LatencySummary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

// Summarize over 1..100 ms: the percentiles are their own ranks and the
// mean is exact.
func TestSummarize(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	sum := Summarize(lat)
	if sum.P50Ms != 50 || sum.P95Ms != 95 || sum.P99Ms != 99 || sum.MaxMs != 100 {
		t.Fatalf("percentiles: %+v", sum)
	}
	if sum.MeanMs != 50.5 {
		t.Fatalf("mean %v, want 50.5", sum.MeanMs)
	}
}
