// LoadReport is the machine-readable outcome of a yatload run; scripts
// read it, so it changes compatibly or not at all.
package wire

import (
	"math"
	"sort"
	"time"
)

// LatencySummary is a latency distribution in milliseconds.
type LatencySummary struct {
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LoadReport summarizes one sustained load-test window (warmup
// excluded).
type LoadReport struct {
	URL             string         `json:"url"`
	Pattern         string         `json:"pattern"`
	Functors        []string       `json:"functors,omitempty"`
	Workers         int            `json:"workers"`
	WarmupSeconds   float64        `json:"warmup_seconds"`
	DurationSeconds float64        `json:"duration_seconds"`
	Requests        int64          `json:"requests"`
	Errors          int64          `json:"errors"`
	QPS             float64        `json:"qps"`
	Latency         LatencySummary `json:"latency"`
}

// Percentile reads the p-quantile (0 < p <= 100) from an ASCENDING
// sorted latency slice using nearest-rank — the smallest value with at
// least p percent of the samples at or below it, rank ceil(n·p/100) —
// zero on an empty slice.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summarize condenses raw request latencies (any order) into the
// report's distribution. The slice is sorted in place.
func Summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		P50Ms:  ms(Percentile(lat, 50)),
		P95Ms:  ms(Percentile(lat, 95)),
		P99Ms:  ms(Percentile(lat, 99)),
		MeanMs: ms(total / time.Duration(len(lat))),
		MaxMs:  ms(lat[len(lat)-1]),
	}
}
