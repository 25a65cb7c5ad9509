package source

import (
	"context"
	"sync"
	"time"

	"yat/internal/trace"
	"yat/internal/tree"
)

// CacheOptions tunes WithCache. The zero value keeps snapshots fresh
// for one minute on the real clock.
type CacheOptions struct {
	// TTL is the freshness window: a snapshot younger than TTL is
	// served directly; an older one is served stale while a background
	// refresh runs (<= 0 means 1 minute).
	TTL time.Duration
	// Clock injects time for tests; nil means the wall clock.
	Clock Clock
}

// Cached is the stale-while-revalidate decorator: after the first
// successful fetch it always answers immediately from the last good
// snapshot. A stale snapshot triggers one background refresh; a
// failing refresh keeps the stale data serving (degraded but
// available), which is the behaviour that keeps a mediator answering
// while a wrapper is down.
type Cached struct {
	inner Source
	opts  CacheOptions

	// fillMu serializes the synchronous cold fill so concurrent first
	// fetches hit the inner source once.
	fillMu sync.Mutex

	mu         sync.Mutex
	snap       *tree.Store
	snapAt     time.Time
	refreshing bool
	lastErr    error
	// epoch counts Invalidate calls. Every commit path snapshots it
	// before fetching the inner source and commits only if it is
	// unchanged, so a fetch that started before an Invalidate cannot
	// resurrect the dropped snapshot by committing after it.
	epoch uint64

	// wg tracks background refreshes so tests (and the soak job's leak
	// check) can wait for quiescence.
	wg sync.WaitGroup

	staleServed counter
	refreshErrs counter
}

// WithCache decorates a source with a stale-while-revalidate snapshot
// cache. It is the outermost decorator of the conventional chain.
func WithCache(s Source, opts CacheOptions) *Cached {
	if opts.TTL <= 0 {
		opts.TTL = time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = RealClock
	}
	return &Cached{inner: s, opts: opts}
}

func (c *Cached) Name() string { return c.inner.Name() }

func (c *Cached) Fetch(ctx context.Context) (*tree.Store, error) {
	c.mu.Lock()
	if c.snap != nil {
		age := c.opts.Clock.Now().Sub(c.snapAt)
		snap := c.snap
		if age < c.opts.TTL {
			c.mu.Unlock()
			return snap, nil
		}
		// Stale: kick one background refresh and serve the last good
		// snapshot immediately. The refresh is detached from the
		// caller's cancellation (it outlives this fetch) but keeps its
		// values, so trace events still reach the caller's sink.
		if !c.refreshing {
			c.refreshing = true
			c.wg.Add(1)
			go c.refresh(context.WithoutCancel(ctx), c.epoch)
		}
		c.staleServed.Add(1)
		c.mu.Unlock()
		emit(ctx, trace.Event{Kind: trace.KindStaleServed, Phase: trace.PhaseSource,
			Detail: c.inner.Name(), Count: 1, Duration: age})
		return snap, nil
	}
	c.mu.Unlock()

	// Cold: fill synchronously, one filler at a time.
	c.fillMu.Lock()
	defer c.fillMu.Unlock()
	c.mu.Lock()
	if c.snap != nil { // another filler won the race
		snap := c.snap
		c.mu.Unlock()
		return snap, nil
	}
	epoch := c.epoch
	c.mu.Unlock()
	store, err := c.inner.Fetch(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.lastErr = err
		return nil, err
	}
	if c.epoch == epoch {
		c.commit(store)
	}
	return store, nil
}

// refresh runs one background revalidation. epoch is the invalidation
// epoch observed when the refresh was kicked off; an Invalidate in the
// meantime discards the result instead of resurrecting the snapshot.
func (c *Cached) refresh(ctx context.Context, epoch uint64) {
	defer c.wg.Done()
	store, err := c.inner.Fetch(ctx)
	c.mu.Lock()
	c.refreshing = false
	switch {
	case err != nil:
		c.refreshErrs.Add(1)
		c.lastErr = err
	case c.epoch == epoch:
		c.commit(store)
	}
	c.mu.Unlock()
}

// commit installs a new good snapshot; callers hold c.mu.
func (c *Cached) commit(store *tree.Store) {
	c.snap = store
	c.snapAt = c.opts.Clock.Now()
	c.lastErr = nil
}

// Refresh synchronously re-fetches the inner source and installs the
// result, returning the fetch error if it fails (the old snapshot
// keeps serving then). It is the hook behind the mediator's
// RefreshSource.
func (c *Cached) Refresh(ctx context.Context) error {
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	store, err := c.inner.Fetch(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.refreshErrs.Add(1)
		c.lastErr = err
		return err
	}
	if c.epoch == epoch {
		c.commit(store)
	}
	return nil
}

// Invalidate drops the snapshot; the next fetch fills cold. Any
// refresh already in flight — background or synchronous — commits
// against the old epoch and is discarded, so invalidated data cannot
// come back without a fresh fetch.
func (c *Cached) Invalidate() {
	c.mu.Lock()
	c.snap = nil
	c.snapAt = time.Time{}
	c.epoch++
	c.mu.Unlock()
}

// Wait blocks until no background refresh is running — the quiescence
// point for tests and leak checks.
func (c *Cached) Wait() { c.wg.Wait() }

// SourceStats implements Statser.
func (c *Cached) SourceStats() Stats {
	s := StatsOf(c.inner)
	s.StaleServed += c.staleServed.Load()
	c.mu.Lock()
	if c.snap != nil {
		s.StaleAge = Millis(c.opts.Clock.Now().Sub(c.snapAt))
	}
	if c.lastErr != nil && s.LastErr == "" {
		s.LastErr = c.lastErr.Error()
	}
	c.mu.Unlock()
	return s
}
