package federate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// cannedChild serves the ask reply *reply holds — an empty one fails
// with 503 — and functors on /functors. It holds no write epoch, as a
// server over a federation does: its replies carry no ETag, and it
// ignores If-None-Match.
func cannedChild(t *testing.T, reply *atomic.Value, functors string) *Client {
	return newCannedChild(t, reply, functors, false)
}

// conditionalChild is cannedChild with a write epoch, as serve has: each
// reply it holds is an epoch of its own, which tags the reply, and an
// ask whose If-None-Match names it is answered 304.
func conditionalChild(t *testing.T, reply *atomic.Value, functors string) *Client {
	return newCannedChild(t, reply, functors, true)
}

func newCannedChild(t *testing.T, reply *atomic.Value, functors string, conditional bool) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ask":
			body := reply.Load().(string)
			writes := fnv.New64a()
			io.WriteString(writes, body)
			tag := `"` + string(wire.AppendEpoch(nil, wire.Epoch{Boot: 1, Writes: writes.Sum64()})) + `"`
			if conditional && body != "" {
				w.Header().Set("ETag", tag)
			}
			switch {
			case body == "":
				http.Error(w, "down", http.StatusServiceUnavailable)
			case conditional && r.Header.Get("If-None-Match") == tag:
				w.WriteHeader(http.StatusNotModified)
			default:
				io.WriteString(w, body)
			}
		case "/functors":
			fmt.Fprintf(w, `{"functors":%s,"generation":1}`, functors)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	t.Cleanup(c.Close)
	return c
}

// countingRender renders as serve does and counts its calls: an
// AskReply that renders nothing answered from the memo.
func countingRender(keyed bool, renders *int) func(int64, []mediator.Answer) []byte {
	return func(generation int64, answers []mediator.Answer) []byte {
		*renders++
		return wire.AppendAskResponse(nil, generation, answers, keyed)
	}
}

func cannedReply(functor string, n int) string {
	return fmt.Sprintf(`{"generation":1,"count":1,"answers":[{"name":"%s(%d)","key":"%s(int:%d)\u0000"}]}`+"\n", functor, n, functor, n)
}

// replayAfterSecondChildMoves asks a federation over two canned
// children three times — the second child's reply changes before the
// third — and returns how the asks went wrong, "" when none did. child
// builds the children.
func replayAfterSecondChildMoves(t *testing.T, child func(*testing.T, *atomic.Value, string) *Client, checksFirstOnly bool) string {
	var a, b atomic.Value
	a.Store(cannedReply("Pview1", 1))
	b.Store(cannedReply("Pview2", 1))
	fed, err := New(Config{Children: []Child{
		{Asker: child(t, &a, `["Pview1"]`)},
		{Asker: child(t, &b, `["Pview2"]`)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fed.replayChecksFirstOnly = checksFirstOnly
	renders := 0
	ask := func() string {
		body, err := fed.AskReply(context.Background(), "X", nil, false, countingRender(false, &renders))
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	first := ask()
	if again := ask(); again != first || renders != 1 {
		return fmt.Sprintf("repeated ask rendered %d times: %s, first %s", renders, again, first)
	}
	b.Store(cannedReply("Pview2", 2))
	const want = `{"generation":1,"count":2,"answers":[{"name":"Pview1(1)"},{"name":"Pview2(2)"}]}` + "\n"
	if got := ask(); got != want || renders != 2 {
		return fmt.Sprintf("after the second child moved, %d renders: %s, want %s", renders, got, want)
	}
	return ""
}

// TestReplyMemoChecksEveryDigest replays a memoized reply only when
// every child's reply is the one the memo saw — by a 304 from a child
// that tags its replies with an epoch, by the digest of the bytes from
// one that holds none: the mutant that checks the first target's alone
// replays a reply the second child no longer backs.
func TestReplyMemoChecksEveryDigest(t *testing.T) {
	for name, child := range map[string]func(*testing.T, *atomic.Value, string) *Client{
		"conditional": conditionalChild, "unconditional": cannedChild,
	} {
		if diff := replayAfterSecondChildMoves(t, child, false); diff != "" {
			t.Errorf("%s children: %s", name, diff)
		}
		if replayAfterSecondChildMoves(t, child, true) == "" {
			t.Errorf("%s children: vacuous: the first-target-only mutant served the moved child's reply too", name)
		}
	}
}

// TestClientRefusesAnUnaskedNotModified: a 304 to an ask that named no
// reply stands for nothing, and fails the ask with a typed *RemoteError
// rather than passing for an empty reply — also the first ask of a
// federation's memo, which has no digest to send yet.
func TestClientRefusesAnUnaskedNotModified(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, nil)
	t.Cleanup(c.Close)
	answers, err := c.Ask("X")
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusNotModified || answers != nil {
		t.Errorf("Ask against a 304: %v answers, error %v; want a *RemoteError with status 304", answers, err)
	}
	fed, err := New(Config{Children: []Child{{Asker: c, Functors: []string{"Pview1"}}}})
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	body, err := fed.AskReply(context.Background(), "X", nil, false, countingRender(false, &renders))
	var fe *FanoutError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "not_modified") || body != nil || renders != 0 {
		t.Errorf("AskReply against a 304: reply %q, %d renders, error %v; want the child failed", body, renders, err)
	}
}

// TestReplyMemoSkipsWhatHasNoBytes: an ask with an in-process child, or
// with no target at all, is rendered every time.
func TestReplyMemoSkipsWhatHasNoBytes(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	var remote atomic.Value
	remote.Store(cannedReply("Pview2", 1))
	mixed, err := New(Config{Children: []Child{
		{Asker: mediator.New(yatl.MustParse(workload.SelectiveProgram(1)), workload.BrochureStore(2, 1, 2, 1)), Functors: []string{"Pview1"}},
		{Asker: cannedChild(t, &remote, `["Pview2"]`)},
	}, Programs: []*yatl.Program{prog}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := New(Config{Children: []Child{{Asker: cannedChild(t, &remote, `[]`)}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, fed := range map[string]*Federation{"in-process child": mixed, "no target": empty} {
		renders := 0
		var first []byte
		for i := 0; i < 3; i++ {
			body, err := fed.AskReply(context.Background(), "X", nil, true, countingRender(true, &renders))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s: ask %d differs: %s, first %s", name, i, body, first)
			}
		}
		if renders != 3 || fed.replies.Len() != 0 {
			t.Errorf("%s: %d renders in 3 asks, %d memo entries; want 3 and none", name, renders, fed.replies.Len())
		}
	}
}

// TestReplyMemoKeepsNoDegradedReply: while a child fails, every ask is
// gathered and rendered afresh and the memo keeps none of them; the
// first ask once the child is back is complete.
func TestReplyMemoKeepsNoDegradedReply(t *testing.T) {
	var a, b atomic.Value
	a.Store(cannedReply("Pview1", 1))
	b.Store(cannedReply("Pview2", 1))
	fed, err := New(Config{Children: []Child{
		{Asker: cannedChild(t, &a, `["Pview1"]`)},
		{Asker: cannedChild(t, &b, `["Pview2"]`)},
	}, Guard: &GuardOptions{Retry: &source.RetryOptions{MaxAttempts: 1}, Breaker: &source.BreakerOptions{Threshold: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	ask := func(functors ...string) string {
		body, err := fed.AskReply(context.Background(), "X", functors, false, countingRender(false, &renders))
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	ask() // memoizes the complete reply
	b.Store("")
	const degraded = `{"generation":1,"count":1,"answers":[{"name":"Pview1(1)"}]}` + "\n"
	for i := 0; i < 3; i++ {
		for _, functors := range [][]string{nil, {"Pview2", "Pview1"}} {
			before := renders
			if got := ask(functors...); got != degraded || renders != before+1 {
				t.Errorf("child down, %v: %d renders, reply %s; want one and %s", functors, renders-before, got, degraded)
			}
		}
	}
	if n := fed.replies.Len(); n != 1 {
		t.Errorf("%d memo entries after the degraded asks, want the complete one alone", n)
	}
	b.Store(cannedReply("Pview2", 1))
	const complete = `{"generation":1,"count":2,"answers":[{"name":"Pview1(1)"},{"name":"Pview2(1)"}]}` + "\n"
	for _, functors := range [][]string{nil, {"Pview2", "Pview1"}} {
		if got := ask(functors...); got != complete {
			t.Errorf("child back, %v: %s, want %s", functors, got, complete)
		}
	}
}

// TestReplyMemoIsBounded: the memo stops admitting asks at its entry
// bound; one past it is rendered every time, while one it holds still
// takes a new entry when a child moves.
func TestReplyMemoIsBounded(t *testing.T) {
	var a atomic.Value
	a.Store(cannedReply("Pview1", 1))
	fed, err := New(Config{Children: []Child{{Asker: cannedChild(t, &a, `["Pview1"]`)}}})
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	ask := func(i int) string {
		body, err := fed.AskReply(context.Background(), fmt.Sprintf("view < -> name -> N%d >", i), nil, false, countingRender(false, &renders))
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	for i := 0; i <= maxReplyMemo; i++ {
		ask(i)
	}
	if n := fed.replies.Len(); n != maxReplyMemo || renders != maxReplyMemo+1 {
		t.Fatalf("%d entries after %d renders, want the cap of %d", n, renders, maxReplyMemo)
	}
	before := renders
	ask(maxReplyMemo)
	ask(0)
	if renders != before+1 {
		t.Errorf("%d renders for an ask past the cap and a memoized one, want 1", renders-before)
	}
	a.Store(cannedReply("Pview1", 2))
	ask(0)
	if got := ask(0); renders != before+2 || got != `{"generation":1,"count":1,"answers":[{"name":"Pview1(2)"}]}`+"\n" {
		t.Errorf("after the child moved: %d renders, %s", renders-before-1, got)
	}
}

// TestReplyMemoHitReportsLikeAMiss: a memoized reply still leaves each
// client at the generation its child's reply carried, and emits the
// shard-ask events a gathered one does — whether the children answered
// 304 or sent the bytes again. Each child is reported once per ask,
// also when it answered 304 and was asked again because the other
// child had moved.
func TestReplyMemoHitReportsLikeAMiss(t *testing.T) {
	for name, child := range map[string]func(*testing.T, *atomic.Value, string) *Client{
		"conditional": conditionalChild, "unconditional": cannedChild,
	} {
		var a, b atomic.Value
		a.Store(strings.Replace(cannedReply("Pview1", 1), `"generation":1`, `"generation":3`, 1))
		b.Store(cannedReply("Pview2", 1))
		ca := child(t, &a, `["Pview1"]`)
		rec := &trace.Recorder{}
		fed, err := New(Config{Children: []Child{{Asker: ca}, {Asker: child(t, &b, `["Pview2"]`)}}})
		if err != nil {
			t.Fatal(err)
		}
		renders := 0
		// Gathered, replayed from the bytes, replayed from 304s (when the
		// children give them), and gathered after the second child moved.
		const asks = 4
		var shardAsks [asks][]string
		for i := range shardAsks {
			if i == asks-1 {
				b.Store(cannedReply("Pview2", 2))
			}
			ca.gen.Store(7) // as a /functors call observing generation 7 would
			before, called := len(rec.Events()), [2]int64{fed.children[0].asks.Load(), fed.children[1].asks.Load()}
			if _, err := fed.AskReply(trace.WithSink(context.Background(), rec), "X", nil, true, countingRender(true, &renders)); err != nil {
				t.Fatal(err)
			}
			if g := ca.Generation(); g != 3 {
				t.Errorf("%s children, ask %d: the client for a is at generation %d, want its reply's 3", name, i, g)
			}
			for _, e := range rec.Events()[before:] {
				if e.Kind == trace.KindShardAsk {
					shardAsks[i] = append(shardAsks[i], fmt.Sprintf("%s:%d", e.Detail, e.Count))
				}
			}
			sort.Strings(shardAsks[i])
			for k, c := range fed.children {
				if n := c.asks.Load() - called[k]; n != 1 {
					t.Errorf("%s children, ask %d: child %d reported %d times, want once", name, i, k, n)
				}
			}
		}
		for i := 1; i < asks; i++ {
			if !slices.Equal(shardAsks[i], shardAsks[0]) || len(shardAsks[0]) != 2 {
				t.Errorf("%s children: shard asks gathered %v, ask %d %v", name, shardAsks[0], i, shardAsks[i])
			}
		}
		if renders != 2 {
			t.Errorf("%s children: %d renders in %d asks, want the first and the last", name, renders, asks)
		}
	}
}
