package source

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"yat/internal/trace"
	"yat/internal/tree"
)

// RetryOptions tunes WithRetry. The zero value means 3 attempts, a
// 50ms base delay doubling up to 2s, 20% jitter, the real clock and a
// deterministic per-decorator jitter source.
type RetryOptions struct {
	// MaxAttempts is the total number of fetch attempts (first try
	// included). <= 0 means 3; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms);
	// each further retry multiplies it by Multiplier (default 2) up to
	// MaxDelay (default 2s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of the computed delay randomized
	// symmetrically around it (0.2 → ±20%). Negative disables jitter;
	// 0 means the 0.2 default.
	Jitter float64
	// Clock injects time for tests; nil means the wall clock.
	Clock Clock
	// Rand injects the jitter source as a func returning [0,1); nil
	// means a fixed-seed deterministic generator private to the
	// decorator.
	Rand func() float64
}

// retrier retries failed fetches with exponential backoff.
type retrier struct {
	inner Source
	opts  RetryOptions

	randMu sync.Mutex
	rand   func() float64

	attempts counter
	failures counter
	retries  counter

	errMu   sync.Mutex
	lastErr error
}

// WithRetry decorates a source with bounded retries and exponential
// backoff plus jitter. A retry is not attempted when the context is
// already cancelled or when the failure is a breaker rejection
// (retrying a deliberately open breaker only burns its cooldown).
func WithRetry(s Source, opts RetryOptions) Source {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 50 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Second
	}
	if opts.Multiplier <= 1 {
		opts.Multiplier = 2
	}
	switch {
	case opts.Jitter < 0:
		opts.Jitter = 0
	case opts.Jitter == 0:
		opts.Jitter = 0.2
	}
	if opts.Clock == nil {
		opts.Clock = RealClock
	}
	r := &retrier{inner: s, opts: opts, rand: opts.Rand}
	if r.rand == nil {
		r.rand = newXorShift(0x5EED5EED5EED5EED)
	}
	return r
}

// newXorShift is a small deterministic [0,1) generator (xorshift64*),
// independent of math/rand so jitter schedules are stable across Go
// versions. The caller serializes access.
func newXorShift(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64((state*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
	}
}

func (r *retrier) Name() string { return r.inner.Name() }

// Fetch tries the inner source up to MaxAttempts times. Between
// attempts it emits a source-retry trace event and waits out the
// backoff on the injected clock, aborting early if the context is
// cancelled.
func (r *retrier) Fetch(ctx context.Context) (*tree.Store, error) {
	var lastErr error
	tried := 0
	for attempt := 1; attempt <= r.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			r.retries.Add(1)
			trace.Emit(ctx, trace.Event{Kind: trace.KindSourceRetry, Phase: trace.PhaseSource,
				Detail: r.inner.Name(), Count: attempt})
			if err := r.sleep(ctx, r.backoff(attempt-1)); err != nil {
				return nil, fmt.Errorf("source %s: retry wait: %w", r.inner.Name(), err)
			}
		}
		r.attempts.Add(1)
		tried++
		store, err := r.inner.Fetch(ctx)
		if err == nil {
			r.setLastErr(nil)
			return store, nil
		}
		r.failures.Add(1)
		r.setLastErr(err)
		lastErr = err
		// A cancelled context or an open breaker will not heal within
		// the backoff window; stop early.
		var open *ErrBreakerOpen
		if ctx.Err() != nil || errors.As(err, &open) {
			break
		}
	}
	return nil, fmt.Errorf("source %s: giving up after %d attempt(s): %w",
		r.inner.Name(), tried, lastErr)
}

// backoff computes the delay before the retry-th re-attempt (1-based):
// Base·Multiplier^(retry-1), capped at MaxDelay, jittered ±Jitter.
func (r *retrier) backoff(retry int) time.Duration {
	d := float64(r.opts.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= r.opts.Multiplier
		if d >= float64(r.opts.MaxDelay) {
			d = float64(r.opts.MaxDelay)
			break
		}
	}
	if d > float64(r.opts.MaxDelay) {
		d = float64(r.opts.MaxDelay)
	}
	if j := r.opts.Jitter; j > 0 {
		r.randMu.Lock()
		u := r.rand()
		r.randMu.Unlock()
		d *= 1 + j*(2*u-1)
	}
	return time.Duration(d)
}

// sleep waits d on the clock, or returns the context's error if it is
// cancelled first. The explicit pre- and post-checks keep behaviour
// deterministic with a FakeClock, whose After channel is always ready.
func (r *retrier) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-r.opts.Clock.After(d):
		return ctx.Err()
	}
}

func (r *retrier) setLastErr(err error) {
	r.errMu.Lock()
	r.lastErr = err
	r.errMu.Unlock()
}

// SourceStats implements Statser: the inner snapshot plus the retry
// counters and the most recent error.
func (r *retrier) SourceStats() Stats {
	s := StatsOf(r.inner)
	s.Attempts += r.attempts.Load()
	s.Failures += r.failures.Load()
	s.Retries += r.retries.Load()
	r.errMu.Lock()
	if r.lastErr != nil {
		s.LastErr = r.lastErr.Error()
	}
	r.errMu.Unlock()
	return s
}
