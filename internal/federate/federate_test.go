package federate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// renderAnswers flattens an answer sequence into comparable strings:
// the Skolem name plus the bindings in sorted-variable order.
func renderAnswers(answers []mediator.Answer) []string {
	out := make([]string, len(answers))
	for i, a := range answers {
		var b strings.Builder
		b.WriteString(a.Name.String())
		vars := make([]string, 0, len(a.Binding))
		for v := range a.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			b.WriteString(" " + v + "=" + a.Binding[v].Display())
		}
		out[i] = b.String()
	}
	return out
}

func mustAsk(t *testing.T, a mediator.Asker, pattern string, functors ...string) []string {
	t.Helper()
	answers, err := a.Ask(pattern, functors...)
	if err != nil {
		t.Fatalf("Ask(%q, %v): %v", pattern, functors, err)
	}
	return renderAnswers(answers)
}

// TestFederatedEquivalence is the golden property: a federation's
// merged answers are byte-identical to a single-process mediator over
// the unsharded program, at every shard count, for
// bare asks, single-functor asks, and multi-functor asks that cross
// shards.
func TestFederatedEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		inputs *tree.Store
	}{
		// Six independent view groups: the selective-ask workload.
		{"selective", workload.SelectiveProgram(6), workload.BrochureStore(6, 2, 5, 7)},
		// Rules 1+2: the Psup slice pulls Car in as a support rule, so
		// shard sub-programs genuinely overlap (slice soundness at work).
		{"deref", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := yatl.MustParse(tc.src)
			single := mediator.New(prog, tc.inputs, mediator.WithDemandDriven(true))
			functors, err := single.Functors()
			if err != nil {
				t.Fatal(err)
			}
			wantBare := mustAsk(t, single, "X")
			wantAll := mustAsk(t, single, "X", functors...)
			wantOne := make(map[string][]string, len(functors))
			for _, f := range functors {
				wantOne[f] = mustAsk(t, single, "X", f)
			}
			for _, shards := range []int{1, 2, 4} {
				fed, err := New(Config{
					Programs: []*yatl.Program{prog},
					Shards:   shards,
					Inputs:   tc.inputs,
				})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("shards=%d", shards)
				if got := mustAsk(t, fed, "X"); !reflect.DeepEqual(got, wantBare) {
					t.Errorf("%s bare ask diverged:\n got %v\nwant %v", label, got, wantBare)
				}
				if got := mustAsk(t, fed, "X", functors...); !reflect.DeepEqual(got, wantAll) {
					t.Errorf("%s all-functor ask diverged:\n got %v\nwant %v", label, got, wantAll)
				}
				for _, f := range functors {
					if got := mustAsk(t, fed, "X", f); !reflect.DeepEqual(got, wantOne[f]) {
						t.Errorf("%s ask(%s) diverged:\n got %v\nwant %v", label, f, got, wantOne[f])
					}
				}
			}
		})
	}
}

func TestPlanShards(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(5))
	plans := PlanShards(prog, 3)
	if len(plans) != 3 {
		t.Fatalf("got %d plans, want 3", len(plans))
	}
	var owned []string
	for _, p := range plans {
		owned = append(owned, p.Functors...)
		if len(p.Functors) == 0 {
			t.Errorf("shard %d owns no functors", p.Index)
		}
		if p.Prog == nil || len(p.Prog.Rules) == 0 {
			t.Errorf("shard %d has an empty sub-program", p.Index)
		}
	}
	sort.Strings(owned)
	want := []string{"Pview1", "Pview2", "Pview3", "Pview4", "Pview5"}
	if !reflect.DeepEqual(owned, want) {
		t.Errorf("owned functors = %v, want %v (disjoint and complete)", owned, want)
	}
	// n clamps to the group count: no empty shards, ever.
	if got := len(PlanShards(prog, 99)); got != 5 {
		t.Errorf("PlanShards(_, 99) produced %d shards, want 5", got)
	}
	if got := len(PlanShards(prog, 0)); got != 1 {
		t.Errorf("PlanShards(_, 0) produced %d shards, want 1", got)
	}
}

func TestUnroutableFunctor(t *testing.T) {
	fed, err := New(Config{
		Programs: []*yatl.Program{yatl.MustParse(workload.SelectiveProgram(2))},
		Shards:   2,
		Inputs:   workload.BrochureStore(2, 1, 2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fed.Ask("X", "Pnope")
	var unroutable *UnroutableError
	if !errors.As(err, &unroutable) {
		t.Fatalf("err = %v, want *UnroutableError", err)
	}
	if unroutable.Functor != "Pnope" || unroutable.Shards != 2 {
		t.Errorf("UnroutableError = %+v, want Functor=Pnope Shards=2", unroutable)
	}
}

// slowAsker delays every AskContext, cooperating with cancellation —
// how a stuck child looks to the guard chain's per-call timeout.
type slowAsker struct {
	mediator.Asker
	delay time.Duration
}

func (s slowAsker) AskContext(ctx context.Context, p string, fs ...string) ([]mediator.Answer, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Asker.AskContext(ctx, p, fs...)
}

func TestChildTimeoutDegrades(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(3, 1, 3, 5)
	plans := PlanShards(prog, 2)
	healthy := mediator.New(plans[0].Prog, inputs, mediator.WithDemandDriven(true))
	slow := slowAsker{
		Asker: mediator.New(plans[1].Prog, inputs, mediator.WithDemandDriven(true)),
		delay: time.Second,
	}
	profile := trace.NewProfile()
	fed, err := New(Config{
		Children: []Child{
			{Name: "fast", Asker: healthy, Functors: plans[0].Functors},
			{Name: "stuck", Asker: slow, Functors: plans[1].Functors},
		},
		Guard: &GuardOptions{
			Timeout: 30 * time.Millisecond,
			Retry:   &source.RetryOptions{MaxAttempts: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := fed.AskContext(trace.WithSink(context.Background(), profile), "X")
	if err != nil {
		t.Fatalf("degraded ask must not error, got %v", err)
	}
	want := mustAsk(t, healthy, "X", plans[0].Functors...)
	if got := renderAnswers(answers); !reflect.DeepEqual(got, want) {
		t.Errorf("partial answers = %v, want the healthy shard's %v", got, want)
	}
	st := fed.Stats()
	byName := map[string]mediator.ShardStatus{}
	for _, sh := range st.Shards {
		byName[sh.Name] = sh
	}
	if byName["fast"].Healthy != true || byName["stuck"].Healthy != false {
		t.Errorf("shard health = %+v, want fast healthy, stuck unhealthy", st.Shards)
	}
	if byName["stuck"].LastErr == "" {
		t.Error("stuck shard reports no LastErr")
	}
	degraded := 0
	for _, sp := range profile.Shards() {
		degraded += sp.Degraded
	}
	if degraded != 1 {
		t.Errorf("profile shows %d degraded shard asks, want 1", degraded)
	}
}

// failingAsker always errors — a dead child.
type failingAsker struct {
	calls atomic.Int64
	fs    []string
}

func (f *failingAsker) Ask(p string, fns ...string) ([]mediator.Answer, error) {
	return f.AskContext(context.Background(), p, fns...)
}

func (f *failingAsker) AskContext(context.Context, string, ...string) ([]mediator.Answer, error) {
	f.calls.Add(1)
	return nil, errors.New("child is down")
}

func (f *failingAsker) Functors() ([]string, error) { return f.fs, nil }
func (f *failingAsker) Stats() mediator.Stats       { return mediator.Stats{Generation: 1} }

func TestBreakerOpensOnDeadChild(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	inputs := workload.BrochureStore(2, 1, 2, 3)
	plans := PlanShards(prog, 2)
	healthy := mediator.New(plans[0].Prog, inputs, mediator.WithDemandDriven(true))
	dead := &failingAsker{fs: plans[1].Functors}
	clock := source.NewFakeClock()
	fed, err := New(Config{
		Children: []Child{
			{Name: "ok", Asker: healthy, Functors: plans[0].Functors},
			{Name: "dead", Asker: dead, Functors: plans[1].Functors},
		},
		Guard: &GuardOptions{
			Retry:   &source.RetryOptions{MaxAttempts: 1},
			Breaker: &source.BreakerOptions{Threshold: 2},
			Clock:   clock,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fed.Ask("X"); err != nil {
			t.Fatalf("ask %d: degraded ask must not error, got %v", i, err)
		}
	}
	// Threshold 2: the third ask was rejected by the open breaker
	// without touching the dead child.
	if got := dead.calls.Load(); got != 2 {
		t.Errorf("dead child saw %d calls, want 2 (breaker open on the third)", got)
	}
	st := fed.Stats()
	for _, sh := range st.Shards {
		if sh.Name == "dead" {
			if sh.Breaker != "open" {
				t.Errorf("dead shard breaker = %q, want open", sh.Breaker)
			}
			if sh.Failures != 3 {
				t.Errorf("dead shard failures = %d, want 3", sh.Failures)
			}
		}
	}

	// When every contacted shard fails, the Ask errors with the full
	// per-shard picture.
	_, err = fed.Ask("X", plans[1].Functors[0])
	var fanout *FanoutError
	if !errors.As(err, &fanout) {
		t.Fatalf("all-shards-failed ask = %v, want *FanoutError", err)
	}
	if _, ok := fanout.Errs["dead"]; !ok {
		t.Errorf("FanoutError.Errs = %v, missing the dead shard", fanout.Errs)
	}
}

// hangingAsker answers like the Asker it wraps until hang is set; then
// an ask announces itself on entered and waits for its caller to give
// up — a healthy child whose client hangs up mid-ask.
type hangingAsker struct {
	mediator.Asker
	hang    atomic.Bool
	entered chan struct{}
}

func (h *hangingAsker) AskContext(ctx context.Context, p string, fs ...string) ([]mediator.Answer, error) {
	if !h.hang.Load() {
		return h.Asker.AskContext(ctx, p, fs...)
	}
	h.entered <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCallersErrorsAreNotTheChildrens: a pattern that does not parse is
// refused on the parent with the error a mediator gives, before any
// child is called — six of them used to be retried against every
// child, open every breaker and fail the next well-formed ask for the
// cool-down. Nor is a caller that hangs up mid-ask held against the
// child it was waiting on.
func TestCallersErrorsAreNotTheChildrens(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	single := mediator.New(prog, inputs, mediator.WithDemandDriven(true))
	var children []Child
	var askers []*hangingAsker
	for _, p := range PlanShards(prog, 2) {
		a := &hangingAsker{
			Asker:   mediator.New(p.Prog, inputs, mediator.WithDemandDriven(true)),
			entered: make(chan struct{}),
		}
		askers = append(askers, a)
		children = append(children, Child{Asker: a, Functors: p.Functors})
	}
	fed, err := New(Config{Children: children})
	if err != nil {
		t.Fatal(err)
	}
	untouched := func(when string, asks int64) {
		t.Helper()
		for i, sh := range fed.Stats().Shards {
			if !sh.Healthy || sh.Breaker != "closed" || sh.Failures != 0 || sh.Asks != asks {
				t.Errorf("%s: shard %+v, want healthy, breaker closed, 0 failures, %d asks", when, sh, asks)
			}
			if st := source.StatsOf(fed.children[i].chain); st.Retries != 0 || st.BreakerOpens != 0 {
				t.Errorf("%s: %s guard chain counted %+v, want no retry and no breaker trip", when, sh.Name, st)
			}
		}
	}

	const view = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	for i := 0; i < 6; i++ {
		_, err := fed.Ask(`view < -> name ->`)
		_, want := single.Ask(`view < -> name ->`)
		var pe *yatl.ParseError
		if !errors.As(err, &pe) || err.Error() != want.Error() {
			t.Fatalf("malformed ask %d: %v, want the mediator's %v", i, err, want)
		}
	}
	untouched("after six malformed asks", 0)
	if got, want := mustAsk(t, fed, view), mustAsk(t, single, view); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("ask after the malformed ones = %v, want %v", got, want)
	}
	untouched("after the well-formed ask", 1)

	// Six clients hang up mid-ask, one more than the breaker's threshold.
	for _, a := range askers {
		a.hang.Store(true)
	}
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := fed.AskContext(ctx, view)
			done <- err
		}()
		for _, a := range askers {
			<-a.entered
		}
		cancel()
		if err := <-done; err == nil {
			t.Fatalf("cancelled ask %d was answered", i)
		}
	}
	untouched("after six cancelled asks", 1)
	for _, a := range askers {
		a.hang.Store(false)
	}
	if got, want := mustAsk(t, fed, view), mustAsk(t, single, view); !reflect.DeepEqual(got, want) {
		t.Errorf("ask after the cancelled ones = %v, want %v", got, want)
	}
}

// TestFusedPipelineNoIntermediate: a two-program pipeline hands the
// planner prg1 : SGML↦ODMG and prg2 : ODMG↦HTML; the federation
// serves the §4.3 fusion, so the ODMG model never exists — no shard
// owns its functors, and the trace proves the fusion happened.
func TestFusedPipelineNoIntermediate(t *testing.T) {
	profile := trace.NewProfile()
	fed, err := New(Config{
		Programs: []*yatl.Program{
			yatl.MustParse(yatl.AnnotatedSGMLToODMGSource),
			yatl.MustParse(yatl.WebProgramSource),
		},
		Shards:  2,
		Inputs:  workload.BrochureStore(4, 2, 4, 9),
		Options: []engine.Option{engine.WithTrace(profile)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fusions := profile.Fusions(); len(fusions) != 1 {
		t.Fatalf("profile records %d fusions, want 1: %v", len(fusions), fusions)
	}
	functors, err := fed.Functors()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range functors {
		if f == "Pcar" || f == "Psup" {
			t.Errorf("intermediate functor %s is served — the ODMG model materialized", f)
		}
	}
	answers, err := fed.Ask("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("fused pipeline produced no answers")
	}
	// The answers came straight from shards of the fused program; the
	// single-process fusion agrees.
	single := mediator.New(fed.Program(), workload.BrochureStore(4, 2, 4, 9),
		mediator.WithDemandDriven(true))
	if want := mustAsk(t, single, "X"); !reflect.DeepEqual(renderAnswers(answers), want) {
		t.Errorf("fused federation diverged from fused single mediator")
	}
}

// flakyAsker fails every third call — the race-hammer child.
type flakyAsker struct {
	inner mediator.Asker
	n     atomic.Int64
}

func (f *flakyAsker) Ask(p string, fs ...string) ([]mediator.Answer, error) {
	return f.AskContext(context.Background(), p, fs...)
}

func (f *flakyAsker) AskContext(ctx context.Context, p string, fs ...string) ([]mediator.Answer, error) {
	if f.n.Add(1)%3 == 0 {
		return nil, errors.New("flaky: injected failure")
	}
	return f.inner.AskContext(ctx, p, fs...)
}

func (f *flakyAsker) Functors() ([]string, error) { return f.inner.Functors() }
func (f *flakyAsker) Stats() mediator.Stats       { return f.inner.Stats() }

// TestAskChildFailureRace hammers concurrent Asks against a
// federation whose child fails intermittently; run under -race it
// pins the scatter-gather's and the health counters' thread safety.
func TestAskChildFailureRace(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 13)
	plans := PlanShards(prog, 2)
	steady := mediator.New(plans[0].Prog, inputs, mediator.WithDemandDriven(true))
	flaky := &flakyAsker{inner: mediator.New(plans[1].Prog, inputs, mediator.WithDemandDriven(true))}
	fed, err := New(Config{
		Children: []Child{
			{Name: "steady", Asker: steady, Functors: plans[0].Functors},
			{Name: "flaky", Asker: flaky, Functors: plans[1].Functors},
		},
		Guard: &GuardOptions{
			Retry:   &source.RetryOptions{MaxAttempts: 1},
			Breaker: &source.BreakerOptions{Threshold: 1 << 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := mustAsk(t, steady, "X", plans[0].Functors...)
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				answers, err := fed.Ask("X")
				if err != nil {
					errs <- fmt.Errorf("ask errored despite a healthy shard: %w", err)
					return
				}
				// Degraded asks still carry the steady shard's prefix.
				got := renderAnswers(answers)
				if len(got) < len(want) {
					errs <- fmt.Errorf("answers lost the steady shard: %d < %d", len(got), len(want))
					return
				}
			}
		}()
	}
	// Stats readers race the askers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = fed.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestFunctorsUnion(t *testing.T) {
	fed, err := New(Config{
		Programs: []*yatl.Program{yatl.MustParse(workload.SelectiveProgram(3))},
		Shards:   3,
		Inputs:   workload.BrochureStore(2, 1, 2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fed.Functors()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Pview1", "Pview2", "Pview3"}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("Functors() = %v, want %v", fs, want)
	}
}

// TestReadReplyLimit drives readReply with a limit small enough to
// cross from a test: a body past it is a typed reply_too_large whether
// the child states its length (refused before it is read) or streams
// (refused once the limit is passed) — it used to be cut there and
// reported as malformed JSON — and one at the limit is read whole
// either way.
func TestReadReplyLimit(t *testing.T) {
	const limit = 1 << 10
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if r.URL.Query().Get("sized") == "1" {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		} else {
			w.(http.Flusher).Flush() // commits the reply to chunked encoding
		}
		w.Write(bytes.Repeat([]byte("x"), n))
	}))
	t.Cleanup(ts.Close)
	for _, sized := range []string{"1", "0"} {
		for _, n := range []int{0, limit, limit + 1, 4 * limit} {
			resp, err := http.Get(fmt.Sprintf("%s/?sized=%s&n=%d", ts.URL, sized, n))
			if err != nil {
				t.Fatal(err)
			}
			if known := resp.ContentLength >= 0; known != (sized == "1") {
				t.Fatalf("sized=%s: Content-Length %d", sized, resp.ContentLength)
			}
			reply, err := readReply(resp, limit)
			resp.Body.Close()
			var remote *RemoteError
			switch {
			case n <= limit && (err != nil || len(reply.b) != n):
				t.Errorf("sized=%s n=%d: read %v, %v", sized, n, reply, err)
			case n > limit && (!errors.As(err, &remote) || remote.Code != "reply_too_large" || reply != nil):
				t.Errorf("sized=%s n=%d: %v, error %v; want a *RemoteError reply_too_large", sized, n, reply, err)
			}
		}
	}
}
