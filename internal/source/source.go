// Package source is the fault-tolerant source layer of the mediator
// architecture (Figure 6, §5): a production mediator talks to live
// wrappers that are slow, flaky, or down, so the mediator consumes its
// inputs through the Source interface — a named producer of tree
// snapshots — instead of a pre-materialized store.
//
// Robustness is composed from small decorators, each wrapping an inner
// Source:
//
//	WithTimeout  bounds one fetch with a per-call deadline
//	WithRetry    retries with exponential backoff and jitter
//	WithBreaker  trips a circuit breaker after consecutive failures,
//	             with half-open probing after a cooldown
//
// The conventional chain, outermost first, is
//
//	WithBreaker(WithRetry(WithTimeout(src, d), rOpts), bOpts)
//
// so the breaker counts retried (final) outcomes and each retry attempt
// gets its own timeout. None of them keeps data: the last good snapshot
// is the one a mediator's demand generation pins, and a refresh that
// fails leaves it serving (mediator.RefreshSource). Every decorator
// takes an injectable Clock (and the retry decorator an injectable
// jitter source), so timing behaviour is testable without real sleeps;
// see FakeClock.
//
// Decorators report what happened through two channels: counters,
// exposed as a Stats snapshot via the Statser interface and merged
// along the chain, and trace events (source-retry, breaker-open)
// emitted to the trace.Sink the fetch context carries (trace.WithSink),
// so the EXPLAIN profile of the ask that fetched sees them.
package source

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"time"

	"yat/internal/tree"
)

// Source produces one wrapper's snapshot of YAT trees. Fetch may be
// called concurrently and must honor ctx cancellation; the returned
// store is treated as immutable by callers.
type Source interface {
	// Name identifies the source stably across fetches (stats, trace
	// events and invalidation are keyed by it).
	Name() string
	// Fetch produces the source's current snapshot.
	Fetch(ctx context.Context) (*tree.Store, error)
}

// Stats is a point-in-time snapshot of one source chain's counters.
// Each decorator fills in its own fields and passes the rest through,
// so the snapshot of the outermost decorator describes the whole
// chain. The JSON tags are the wire form GET /stats serves (embedded in
// mediator.SourceStatus); field order is key order.
type Stats struct {
	// Name is the source's stable name.
	Name string `json:"name"`
	// Attempts counts fetches attempted against the decorated source
	// (including retries); Failures counts the attempts that errored.
	Attempts int64 `json:"attempts"`
	Failures int64 `json:"failures"`
	// Retries counts re-attempts after a failed fetch.
	Retries int64 `json:"retries"`
	// Timeouts counts attempts that exceeded the per-fetch deadline.
	Timeouts int64 `json:"timeouts"`
	// BreakerState is "" without a breaker, else "closed", "open" or
	// "half-open"; BreakerOpens counts closed/half-open → open
	// transitions. Rejections counts fetches refused while open.
	BreakerState string `json:"breaker_state,omitempty"`
	BreakerOpens int64  `json:"breaker_opens,omitempty"`
	Rejections   int64  `json:"rejections,omitempty"`
	// LastErr is the most recent fetch error observed by the retry
	// decorator ("" after a success).
	LastErr string `json:"last_err,omitempty"`
}

// Millis is a wall-clock duration that travels as JSON milliseconds,
// the unit the stats documents carry; zero is omitted under omitempty,
// which is what keeps an untimed document deterministic.
type Millis time.Duration

// MarshalJSON renders the duration as (fractional) milliseconds.
func (d Millis) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(d) / float64(time.Millisecond))
}

// UnmarshalJSON inverts MarshalJSON.
func (d *Millis) UnmarshalJSON(data []byte) error {
	var ms float64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	*d = Millis(ms * float64(time.Millisecond))
	return nil
}

// Statser is implemented by sources that can report Stats. All
// decorators of this package implement it, merging the inner source's
// snapshot when it is a Statser too.
type Statser interface {
	SourceStats() Stats
}

// StatsOf snapshots a source's counters: its SourceStats when it is a
// Statser, else a zero Stats carrying only the name.
func StatsOf(s Source) Stats {
	if st, ok := s.(Statser); ok {
		return st.SourceStats()
	}
	return Stats{Name: s.Name()}
}

// static is a Source over a fixed in-memory store — the degenerate
// wrapper, and the adapter for the pre-materialized inputs the
// mediator historically consumed.
type static struct {
	name  string
	store *tree.Store
}

// Static wraps a fixed store as an always-healthy source.
func Static(name string, store *tree.Store) Source {
	return &static{name: name, store: store}
}

func (s *static) Name() string { return s.name }

func (s *static) Fetch(ctx context.Context) (*tree.Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.store, nil
}

// funcSource adapts a closure to the Source interface.
type funcSource struct {
	name string
	fn   func(context.Context) (*tree.Store, error)
}

// FromFunc wraps a fetch closure as a source — the hook for real
// wrapper backends (HTTP, SQL) without a dependency on them here.
func FromFunc(name string, fn func(context.Context) (*tree.Store, error)) Source {
	return &funcSource{name: name, fn: fn}
}

func (s *funcSource) Name() string { return s.name }

func (s *funcSource) Fetch(ctx context.Context) (*tree.Store, error) { return s.fn(ctx) }

// counter is a tiny alias to keep decorator structs tidy.
type counter = atomic.Int64
