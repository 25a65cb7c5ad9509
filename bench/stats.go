package main

import (
	"math"
	"sort"
	"time"
)

// percentile reads the p-quantile (0 < p <= 100) of an ascending
// slice by nearest rank — the smallest sample with at least p percent
// of the samples at or below it — and 0 on an empty slice.
func percentile(sorted []float64, p float64) float64 {
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

// beyond counts the samples strictly above the nearest-rank
// p-quantile of n samples; a percentile is trusted only when at least
// minBeyond samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100))
}

const minBeyond = 10

// median is the middle of xs (mean of the middle two on an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// op is one completed, successful operation of a measured window.
// It is pointer-free: the loops keep their ops off the Go heap.
type op struct {
	done time.Duration // completion, measured from the window's start
	ms   float64       // latency
}

// opBuffer returns an empty off-heap buffer with room for what one
// loop can complete in the window at a rate (50 000/s) no workload
// comes near.
func opBuffer(length time.Duration) ([]op, error) {
	buf, err := offHeap[op](int(length.Seconds()*50_000) + 1024)
	return buf[:0], err
}

// numSlices is how many contiguous slices a measured window is cut
// into; every end-to-end value is the median of its per-slice values.
const numSlices = 8

// sliceOf is the slice an instant, measured from the window's start,
// falls in; what lies past the end counts in the last slice.
func sliceOf(at, length time.Duration) int {
	i := int(int64(at) * numSlices / int64(length))
	return min(max(i, 0), numSlices-1)
}

// sliced holds the per-slice values of one window.
type sliced struct {
	rate, p50, tail []float64 // operations: per second, median and tail latency in ms
	ref             []float64 // median reference round in ms
	n               int       // operations in the window
	thin            bool      // some slice had < minBeyond samples beyond the tail percentile
}

// sliceWindow cuts a window of the given length into numSlices
// contiguous slices by completion time and reduces each to its
// throughput, median latency, tail (tailP) latency and median reference
// round. What completes past the end counts in the last slice.
func sliceWindow(ops, refs []op, length time.Duration, tailP float64) sliced {
	bySlice := func(samples []op) [][]float64 {
		per := make([][]float64, numSlices)
		for _, o := range samples {
			i := sliceOf(o.done, length)
			per[i] = append(per[i], o.ms)
		}
		for _, ms := range per {
			sort.Float64s(ms)
		}
		return per
	}
	out := sliced{n: len(ops)}
	sliceSeconds := length.Seconds() / numSlices
	for _, lat := range bySlice(ops) {
		out.rate = append(out.rate, float64(len(lat))/sliceSeconds)
		out.p50 = append(out.p50, percentile(lat, 50))
		out.tail = append(out.tail, percentile(lat, tailP))
		if beyond(len(lat), tailP) < minBeyond {
			out.thin = true
		}
	}
	for _, ms := range bySlice(refs) {
		out.ref = append(out.ref, percentile(ms, 50))
	}
	return out
}

// perRef pairs each slice's value with the same slice's reference
// round: the host's speed changes from slice to slice and both saw the
// same host. A slice that lacks either is left out.
func perRef(vals, ref []float64, f func(v, ref float64) float64) []float64 {
	var out []float64
	for i, v := range vals {
		if v > 0 && ref[i] > 0 {
			out = append(out, f(v, ref[i]))
		}
	}
	return out
}

// schedule is the open-loop refresh timetable: refresh k is due at
// k·every after the start, whatever the previous one did.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.every) }

// lateness is how long after its due time refresh k was actually sent
// (never negative: an early wake-up waits).
func (s schedule) lateness(k int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(k)); d > 0 {
		return d
	}
	return 0
}

// sinceDue is the open-loop latency of refresh k: completion measured
// from when it was due, so a stall charges every refresh it delays.
func (s schedule) sinceDue(k int, done time.Time) time.Duration { return done.Sub(s.due(k)) }
