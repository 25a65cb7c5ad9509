package source

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"yat/internal/trace"
	"yat/internal/tree"
)

func testStore(t testing.TB, names ...string) *tree.Store {
	t.Helper()
	s := tree.NewStore()
	for _, n := range names {
		s.Put(tree.PlainName(n), tree.Sym("item", tree.Str(n)))
	}
	return s
}

func TestStaticSource(t *testing.T) {
	st := testStore(t, "a", "b")
	s := Static("mem", st)
	if s.Name() != "mem" {
		t.Fatalf("name = %q", s.Name())
	}
	got, err := s.Fetch(context.Background())
	if err != nil || got.Len() != 2 {
		t.Fatalf("fetch = %v, %v", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Fetch(ctx); err == nil {
		t.Fatal("cancelled fetch should fail")
	}
}

// The retry schedule, pinned on the fake clock: failures back off
// exponentially from BaseDelay, double each retry, cap at MaxDelay —
// and no real time passes.
func TestRetryBackoffSchedule(t *testing.T) {
	clock := NewFakeClock()
	fault := NewFault("flaky", testStore(t, "a"),
		Step{Fail: errors.New("boom 1")},
		Step{Fail: errors.New("boom 2")},
		Step{Fail: errors.New("boom 3")},
	)
	s := WithRetry(fault, RetryOptions{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Jitter:      -1, // exact schedule
		Clock:       clock,
	})
	start := time.Now()
	store, err := s.Fetch(context.Background())
	if err != nil || store == nil {
		t.Fatalf("fetch = %v, %v", store, err)
	}
	if real := time.Since(start); real > 2*time.Second {
		t.Fatalf("retry slept in real time (%v); the fake clock should absorb the backoff", real)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond}
	got := clock.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("sleeps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sleep[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	stats := StatsOf(s)
	if stats.Attempts != 4 || stats.Failures != 3 || stats.Retries != 3 {
		t.Errorf("stats = %+v, want attempts=4 failures=3 retries=3", stats)
	}
	if stats.LastErr != "" {
		t.Errorf("LastErr = %q after a success, want empty", stats.LastErr)
	}
}

// Jitter spreads the backoff symmetrically around the exact schedule,
// bounded by the configured fraction, and is deterministic for a given
// injected source.
func TestRetryJitterBounded(t *testing.T) {
	clock := NewFakeClock()
	seq := []float64{0, 0.5, 1 - 1e-9} // min, center, max jitter draws
	i := 0
	fault := NewFault("flaky", testStore(t, "a"),
		Step{Fail: errors.New("e")}, Step{Fail: errors.New("e")}, Step{Fail: errors.New("e")})
	s := WithRetry(fault, RetryOptions{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Hour,
		Jitter:      0.5,
		Clock:       clock,
		Rand:        func() float64 { v := seq[i]; i++; return v },
	})
	if _, err := s.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	sleeps := clock.Sleeps()
	if len(sleeps) != 3 {
		t.Fatalf("sleeps = %v", sleeps)
	}
	// draw 0 → ×0.5 of 100ms; draw 0.5 → ×1.0 of 200ms; draw ~1 → ×~1.5 of 400ms.
	if sleeps[0] != 50*time.Millisecond {
		t.Errorf("min-jitter sleep = %v, want 50ms", sleeps[0])
	}
	if sleeps[1] != 200*time.Millisecond {
		t.Errorf("center-jitter sleep = %v, want 200ms", sleeps[1])
	}
	if sleeps[2] < 400*time.Millisecond || sleeps[2] > 600*time.Millisecond {
		t.Errorf("max-jitter sleep = %v, want in (400ms, 600ms]", sleeps[2])
	}
}

func TestRetryGivesUpAndReportsLastErr(t *testing.T) {
	clock := NewFakeClock()
	fault := NewFault("down", testStore(t), Step{Fail: errors.New("boom")}).Loop(true)
	s := WithRetry(fault, RetryOptions{MaxAttempts: 3, Clock: clock, Jitter: -1})
	_, err := s.Fetch(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	if fault.Calls() != 3 {
		t.Errorf("calls = %d, want 3", fault.Calls())
	}
	if st := StatsOf(s); st.LastErr == "" || st.Failures != 3 {
		t.Errorf("stats = %+v, want failures=3 and a LastErr", st)
	}
	// The message counts this call's attempts, not the decorator's.
	for call := 1; call <= 2; call++ {
		if !strings.Contains(err.Error(), "after 3 attempt(s)") {
			t.Errorf("call %d: %v, want \"after 3 attempt(s)\"", call, err)
		}
		_, err = s.Fetch(context.Background())
	}
}

func TestRetryStopsOnCancelledContext(t *testing.T) {
	clock := NewFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	s := WithRetry(FromFunc("cancelly", func(context.Context) (*tree.Store, error) {
		calls++
		cancel()
		return nil, errors.New("boom")
	}), RetryOptions{MaxAttempts: 5, Clock: clock})
	if _, err := s.Fetch(ctx); err == nil {
		t.Fatal("want error")
	}
	if calls != 1 {
		t.Errorf("fetch ran %d times after cancellation, want 1", calls)
	}
}

func TestRetryEmitsRetryEvents(t *testing.T) {
	clock := NewFakeClock()
	rec := &trace.Recorder{}
	fault := NewFault("flaky", testStore(t, "a"), Step{Fail: errors.New("boom")})
	s := WithRetry(fault, RetryOptions{MaxAttempts: 3, Clock: clock})
	if _, err := s.Fetch(trace.WithSink(context.Background(), rec)); err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSourceRetry {
			retries++
			if e.Detail != "flaky" || e.Phase != trace.PhaseSource {
				t.Errorf("bad retry event %+v", e)
			}
		}
	}
	if retries != 1 {
		t.Errorf("retry events = %d, want 1", retries)
	}
}

// The breaker's full life cycle on the fake clock: closed → open at
// the threshold (rejecting while hot), half-open after the cooldown,
// reopened by a failed probe, closed by a successful one.
func TestBreakerLifeCycle(t *testing.T) {
	clock := NewFakeClock()
	fault := NewFault("db", testStore(t, "a")).WithClock(clock)
	boom := errors.New("boom")
	s := WithBreaker(fault, BreakerOptions{Threshold: 2, Cooldown: 10 * time.Second, Clock: clock})
	ctx := context.Background()

	fault.SetErr(boom)
	for i := 0; i < 2; i++ {
		if _, err := s.Fetch(ctx); !errors.Is(err, boom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if st := StatsOf(s); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after threshold: %+v", st)
	}
	// While open and inside the cooldown, fetches are rejected without
	// touching the source.
	before := fault.Calls()
	var open *ErrBreakerOpen
	if _, err := s.Fetch(ctx); !errors.As(err, &open) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if open.Source != "db" || fault.Calls() != before {
		t.Fatalf("rejection touched the source (calls %d → %d)", before, fault.Calls())
	}

	// Cooldown elapses; the next fetch is the half-open probe. It
	// fails, so the breaker reopens for another full cooldown.
	clock.Advance(10 * time.Second)
	if _, err := s.Fetch(ctx); !errors.Is(err, boom) {
		t.Fatalf("probe: %v", err)
	}
	if st := StatsOf(s); st.BreakerState != "open" || st.BreakerOpens != 2 {
		t.Fatalf("after failed probe: %+v", st)
	}

	// Source heals; after another cooldown the probe succeeds and the
	// breaker closes.
	fault.SetErr(nil)
	clock.Advance(10 * time.Second)
	if _, err := s.Fetch(ctx); err != nil {
		t.Fatalf("healed probe: %v", err)
	}
	if st := StatsOf(s); st.BreakerState != "closed" {
		t.Fatalf("after healed probe: %+v", st)
	}
	if _, err := s.Fetch(ctx); err != nil {
		t.Fatalf("closed fetch: %v", err)
	}
}

// A fetch that fails because its caller gave up says nothing about the
// source: it neither counts towards the threshold nor fails a half-open
// probe.
func TestBreakerIgnoresCallersCancellation(t *testing.T) {
	clock := NewFakeClock()
	boom := errors.New("boom")
	var fail error
	s := WithBreaker(FromFunc("db", func(ctx context.Context) (*tree.Store, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fail
	}), BreakerOptions{Threshold: 2, Cooldown: 10 * time.Second, Clock: clock})
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	for i := 0; i < 5; i++ {
		if _, err := s.Fetch(gone); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled fetch %d: %v", i, err)
		}
	}
	if st := StatsOf(s); st.BreakerState != "closed" || st.BreakerOpens != 0 {
		t.Fatalf("after five cancelled fetches: %+v, want closed", st)
	}

	fail = boom
	for i := 0; i < 2; i++ {
		s.Fetch(context.Background())
	}
	clock.Advance(10 * time.Second)
	if _, err := s.Fetch(gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if st := StatsOf(s); st.BreakerState != "half-open" || st.BreakerOpens != 1 {
		t.Fatalf("after a cancelled probe: %+v, want half-open, still one trip", st)
	}
	fail = nil
	if _, err := s.Fetch(context.Background()); err != nil {
		t.Fatalf("next probe: %v", err)
	}
	if st := StatsOf(s); st.BreakerState != "closed" {
		t.Fatalf("after the healed probe: %+v, want closed", st)
	}
}

func TestBreakerEmitsOpenEvent(t *testing.T) {
	clock := NewFakeClock()
	rec := &trace.Recorder{}
	fault := NewFault("db", testStore(t))
	fault.SetErr(errors.New("boom"))
	s := WithBreaker(fault, BreakerOptions{Threshold: 1, Clock: clock})
	ctx := trace.WithSink(context.Background(), rec)
	s.Fetch(ctx) //nolint:errcheck // failure is the point
	opens := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.KindBreakerOpen && e.Detail == "db" {
			opens++
		}
	}
	if opens != 1 {
		t.Errorf("breaker-open events = %d, want 1", opens)
	}
}

func TestTimeoutCancelsSlowFetch(t *testing.T) {
	slow := FromFunc("slow", func(ctx context.Context) (*tree.Store, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := WithTimeout(slow, 5*time.Millisecond)
	start := time.Now()
	_, err := s.Fetch(context.Background())
	if err == nil {
		t.Fatal("want timeout error")
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("timeout took %v", since)
	}
	if st := StatsOf(s); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// The conventional chain composes: stats from every layer merge into
// one snapshot.
func TestComposedChainStats(t *testing.T) {
	clock := NewFakeClock()
	store := testStore(t, "a")
	fault := NewFault("chain", store,
		Step{Fail: errors.New("cold blip")}, // absorbed by retry
	).WithClock(clock)
	chain := WithBreaker(
		WithRetry(fault, RetryOptions{MaxAttempts: 2, Clock: clock, Jitter: -1}),
		BreakerOptions{Threshold: 3, Clock: clock},
	)
	if _, err := chain.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := StatsOf(chain)
	if st.Name != "chain" {
		t.Errorf("Name = %q", st.Name)
	}
	if st.Attempts != 2 || st.Failures != 1 || st.Retries != 1 {
		t.Errorf("retry layer: %+v", st)
	}
	if st.BreakerState != "closed" || st.BreakerOpens != 0 {
		t.Errorf("breaker layer: %+v", st)
	}
}

// Retrying an open breaker is pointless; the retry decorator stops on
// breaker rejections instead of burning backoff cycles. (Conventional
// order puts the breaker outside retry; this pins the unconventional
// order anyway.)
func TestRetryDoesNotHammerOpenBreaker(t *testing.T) {
	clock := NewFakeClock()
	fault := NewFault("db", testStore(t)).WithClock(clock)
	fault.SetErr(errors.New("boom"))
	brk := WithBreaker(fault, BreakerOptions{Threshold: 1, Cooldown: time.Hour, Clock: clock})
	s := WithRetry(brk, RetryOptions{MaxAttempts: 5, Clock: clock, Jitter: -1})
	if _, err := s.Fetch(context.Background()); err == nil {
		t.Fatal("want error")
	}
	// Attempt 1 trips the breaker (threshold 1); attempt 2 is
	// rejected; the remaining 3 attempts are skipped.
	if got := StatsOf(s); got.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (stop on ErrBreakerOpen)", got.Attempts)
	}
}

func TestFaultScriptAndLatency(t *testing.T) {
	clock := NewFakeClock()
	f := NewFault("f", testStore(t, "a"),
		Step{Latency: 100 * time.Millisecond},
		Step{Fail: errors.New("boom")},
	).WithClock(clock)
	if _, err := f.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sleeps := clock.Sleeps(); len(sleeps) != 1 || sleeps[0] != 100*time.Millisecond {
		t.Errorf("latency sleeps = %v", sleeps)
	}
	if _, err := f.Fetch(context.Background()); err == nil {
		t.Fatal("step 2 should fail")
	}
	// Past the script: healthy.
	if _, err := f.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Calls() != 3 {
		t.Errorf("calls = %d", f.Calls())
	}
}

func TestFaultLoopReplays(t *testing.T) {
	f := NewFault("f", testStore(t, "a"), Step{Fail: errors.New("boom")}, Step{}).Loop(true)
	for i := 0; i < 4; i++ {
		_, err := f.Fetch(context.Background())
		if wantErr := i%2 == 0; (err != nil) != wantErr {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
}

func TestStatsOfPlainSource(t *testing.T) {
	s := Static("plain", tree.NewStore())
	if st := StatsOf(s); st.Name != "plain" || st.Attempts != 0 {
		t.Errorf("StatsOf(plain) = %+v", st)
	}
}

func TestFetchErrorMentionsEverySource(t *testing.T) {
	// Compile-time guard that error text stays stable for operators.
	err := fmt.Errorf("wrapped: %w", errors.New("inner"))
	if err == nil {
		t.Fatal()
	}
}
