package source

import (
	"sync"
	"time"
)

// Clock abstracts the two time operations the decorators need, so
// backoff and cooldown behaviour is testable without real sleeps.
type Clock interface {
	Now() time.Time
	// After behaves like time.After: it returns a channel that fires
	// once the duration has elapsed.
	After(d time.Duration) <-chan time.Time
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock is the wall-clock Clock every decorator defaults to.
var RealClock Clock = realClock{}

// FakeClock is a deterministic Clock for tests. Now starts at a fixed
// epoch and only moves when Advance is called — or when After is
// called: a fake After never blocks; it records the requested
// duration, advances the clock by it, and returns an already-fired
// channel. That makes retry/backoff/cooldown tests fully synchronous:
// the schedule a decorator *would* have slept is read back with
// Sleeps, and elapsed virtual time with Now.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

// NewFakeClock returns a fake clock at a fixed epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current virtual time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the virtual clock forward.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// After records the requested duration, advances the clock by it, and
// returns a channel that has already fired.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
	now := c.now
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// Sleeps returns every duration requested through After, in order —
// the virtual sleep schedule of the code under test.
func (c *FakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}
