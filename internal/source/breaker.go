package source

import (
	"context"
	"fmt"
	"sync"
	"time"

	"yat/internal/trace"
	"yat/internal/tree"
)

// BreakerOptions tunes WithBreaker. The zero value opens after 5
// consecutive failures and probes again after a 30s cooldown on the
// real clock.
type BreakerOptions struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (<= 0 means 5).
	Threshold int
	// Cooldown is how long the breaker stays open before letting one
	// half-open probe through (<= 0 means 30s).
	Cooldown time.Duration
	// Clock injects time for tests; nil means the wall clock.
	Clock Clock
}

// ErrBreakerOpen is returned for fetches rejected while the breaker is
// open (or while a half-open probe is already in flight).
type ErrBreakerOpen struct {
	// Source is the protected source's name.
	Source string
	// Until is when the breaker next admits a probe (zero when the
	// rejection was a concurrent half-open probe).
	Until time.Time
}

func (e *ErrBreakerOpen) Error() string {
	return fmt.Sprintf("source %s: circuit breaker open", e.Source)
}

// breaker state machine values.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// breaker trips after consecutive failures and recovers through
// half-open probing: after the cooldown exactly one fetch is let
// through; its success closes the breaker, its failure reopens it for
// another cooldown.
type breaker struct {
	inner Source
	opts  BreakerOptions

	mu          sync.Mutex
	state       int
	consecFails int
	openedAt    time.Time
	probing     bool

	opens    counter
	rejected counter
}

// WithBreaker decorates a source with a circuit breaker. Place it
// outside WithRetry so it counts final (post-retry) outcomes.
func WithBreaker(s Source, opts BreakerOptions) Source {
	if opts.Threshold <= 0 {
		opts.Threshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = RealClock
	}
	return &breaker{inner: s, opts: opts}
}

func (b *breaker) Name() string { return b.inner.Name() }

func (b *breaker) Fetch(ctx context.Context) (*tree.Store, error) {
	if err := b.admit(); err != nil {
		b.rejected.Add(1)
		return nil, err
	}
	store, err := b.inner.Fetch(ctx)
	b.record(ctx, err)
	return store, err
}

// admit decides whether a fetch may proceed, transitioning open →
// half-open when the cooldown has elapsed.
func (b *breaker) admit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return nil
	case stateOpen:
		until := b.openedAt.Add(b.opts.Cooldown)
		if b.opts.Clock.Now().Before(until) {
			return &ErrBreakerOpen{Source: b.inner.Name(), Until: until}
		}
		b.state = stateHalfOpen
		b.probing = false
		fallthrough
	default: // half-open: admit exactly one probe at a time
		if b.probing {
			return &ErrBreakerOpen{Source: b.inner.Name()}
		}
		b.probing = true
		return nil
	}
}

// record feeds one fetch outcome into the state machine.
func (b *breaker) record(ctx context.Context, err error) {
	b.mu.Lock()
	opened := false
	switch {
	case err == nil:
		b.state = stateClosed
		b.consecFails = 0
	case ctx.Err() != nil:
		// The caller gave up; that is not held against the source. A
		// half-open probe cut short this way leaves the next one to
		// decide.
	default:
		b.consecFails++
		if b.state == stateHalfOpen || b.consecFails >= b.opts.Threshold {
			if b.state != stateOpen {
				b.state = stateOpen
				b.opens.Add(1)
				opened = true
			}
			b.openedAt = b.opts.Clock.Now()
		}
	}
	b.probing = false
	b.mu.Unlock()
	if opened {
		trace.Emit(ctx, trace.Event{Kind: trace.KindBreakerOpen, Phase: trace.PhaseSource,
			Detail: b.inner.Name(), Count: b.consecFailsSnapshot()})
	}
}

func (b *breaker) consecFailsSnapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecFails
}

// SourceStats implements Statser.
func (b *breaker) SourceStats() Stats {
	s := StatsOf(b.inner)
	b.mu.Lock()
	switch b.state {
	case stateOpen:
		s.BreakerState = "open"
	case stateHalfOpen:
		s.BreakerState = "half-open"
	default:
		s.BreakerState = "closed"
	}
	b.mu.Unlock()
	s.BreakerOpens += b.opens.Load()
	s.Rejections += b.rejected.Load()
	return s
}
