// The input side: the one owner of what a mediator's engine runs read.
//
// fetch is the only producer of an inputSnap with a store, and the
// latest pointer Stats renders from is its only side effect. A demand
// generation pins the snap its cache was computed from (demandGen.pin):
// its cold slices run over the pin and RefreshSource diffs a new fetch
// against it, so a diff's baseline is by construction the input the
// cached groups saw. No other file names a field of inputSnap.
package mediator

import (
	"context"
	"sort"
	"sync"
	"time"

	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
)

// inputSnap is the outcome of one fetch, immutable once published.
type inputSnap struct {
	// merged is the engine's input store. The pin of a restored
	// generation has none: its groups were computed by another process
	// from inputs this one never saw, so there is no baseline to diff.
	merged *tree.Store
	// down names, sorted, the sources that failed in the fetch: their
	// data is absent from merged. errs keeps each one's error.
	down []string
	errs map[string]error
	// health is what Stats reports of the fetch per source, declaration
	// order: the error, and the entries contributed — a failed source
	// keeping the count of its last successful fetch.
	health []SourceStatus
}

// restoredSnap is the pin of a generation warm-started from a snapshot:
// no store, the donor's degraded sources.
func restoredSnap(degraded []string) *inputSnap { return &inputSnap{down: degraded} }

// store is the snap's merged input store: nil — no baseline — for a
// generation that has pinned nothing yet and for a restored one.
func (s *inputSnap) store() *tree.Store {
	if s == nil {
		return nil
	}
	return s.merged
}

// degraded lists, sorted, the sources that failed in the snap. Groups
// cached over it may silently miss their data.
func (s *inputSnap) degraded() []string {
	if s == nil {
		return nil
	}
	return s.down
}

// failure is the error of a refresh aimed at the named source: a
// *FetchError naming it when the snap holds none of its data, else nil.
func (s *inputSnap) failure(name string) error {
	if err, ok := s.errs[name]; ok {
		return &FetchError{Errs: map[string]error{name: err}}
	}
	return nil
}

// fetch assembles the engine's input store. Without sources it is the
// constructor's store; with sources, every source is fetched
// concurrently and the stores are merged in declaration order (after
// the constructor's store, later sources winning name collisions), so
// the merged store — and therefore every downstream result — is
// deterministic regardless of fetch completion order. A failing source
// contributes nothing (degradation); only all sources failing is an
// error, published for Stats like any outcome but with no snap to pin.
func (m *Mediator) fetch(ctx context.Context) (*inputSnap, error) {
	if len(m.sources) == 0 {
		return &inputSnap{merged: m.inputs}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sink := trace.SinkFrom(ctx)
	type fetchResult struct {
		store *tree.Store
		err   error
		dur   time.Duration
	}
	results := make([]fetchResult, len(m.sources))
	var wg sync.WaitGroup
	for i, s := range m.sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			st, err := s.Fetch(ctx)
			results[i] = fetchResult{st, err, time.Since(start)}
		}()
	}
	wg.Wait()

	prev := m.latest.Load()
	snap := &inputSnap{merged: tree.NewStore(), health: make([]SourceStatus, len(m.sources))}
	if m.inputs != nil {
		for _, e := range m.inputs.Entries() {
			snap.merged.Put(e.Name, e.Tree)
		}
	}
	snap.errs = map[string]error{}
	for i, s := range m.sources {
		r, h, ok := results[i], &snap.health[i], 0
		if r.err != nil {
			snap.errs[s.Name()] = r.err
			snap.down = append(snap.down, s.Name())
			h.FetchErr = r.err.Error()
			if prev != nil {
				h.Entries = prev.health[i].Entries
			}
		} else {
			ok = 1
			for _, e := range r.store.Entries() {
				snap.merged.Put(e.Name, e.Tree)
			}
			h.Entries = r.store.Len()
		}
		if sink != nil {
			sink.Emit(trace.Event{Kind: trace.KindSourceFetch, Phase: trace.PhaseSource,
				Detail: s.Name(), Count: ok, Duration: r.dur})
		}
	}
	sort.Strings(snap.down)
	m.latest.Store(snap)
	if len(snap.errs) == len(m.sources) {
		return nil, &FetchError{Errs: snap.errs}
	}
	return snap, nil
}

// sourceStatuses snapshots every source's health, in declaration
// order: the chain's own counters now, the rest as of the latest fetch.
func (m *Mediator) sourceStatuses() []SourceStatus {
	if len(m.sources) == 0 {
		return nil
	}
	out := make([]SourceStatus, len(m.sources))
	if snap := m.latest.Load(); snap != nil {
		copy(out, snap.health)
	}
	for i, s := range m.sources {
		out[i].Stats = source.StatsOf(s)
	}
	return out
}
