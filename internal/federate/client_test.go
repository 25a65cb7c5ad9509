// Remote federation tests live in an external test package: they
// stand up real yatserve instances (internal/serve imports federate,
// so the in-package tests cannot).
package federate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

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

// childServer runs one shard's yatserve over httptest and returns a
// dialed client.
func childServer(t *testing.T, prog *yatl.Program, inputs *tree.Store) (*httptest.Server, *federate.Client) {
	t.Helper()
	s, err := serve.New(serve.Config{Prog: prog, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := federate.NewClient(ts.URL, nil)
	t.Cleanup(c.Close)
	return ts, c
}

// TestRemoteFederationEquivalence is the golden property across the
// wire: a parent federation over remote yatserve children answers
// byte-identically to a single-process mediator — names, bindings and
// order survive the round trip through the ?keys=1 merge keys.
func TestRemoteFederationEquivalence(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(5, 2, 4, 21)
	single := mediator.New(prog, inputs, mediator.WithDemandDriven(true))

	plans := federate.PlanShards(prog, 2)
	var children []federate.Child
	for _, p := range plans {
		_, c := childServer(t, p.Prog, inputs)
		children = append(children, federate.Child{Asker: c, Functors: p.Functors})
	}
	fed, err := federate.New(federate.Config{Children: children})
	if err != nil {
		t.Fatal(err)
	}

	functors, err := single.Functors()
	if err != nil {
		t.Fatal(err)
	}
	if got := mustAsk(t, fed, "X"); !reflect.DeepEqual(got, mustAsk(t, single, "X")) {
		t.Errorf("remote bare ask diverged:\n got %v\nwant %v", got, mustAsk(t, single, "X"))
	}
	for _, f := range functors {
		want := mustAsk(t, single, "X", f)
		if got := mustAsk(t, fed, "X", f); !reflect.DeepEqual(got, want) {
			t.Errorf("remote ask(%s) diverged:\n got %v\nwant %v", f, got, want)
		}
	}

	// Remote discovery: a federation built without explicit functor
	// lists asks each child for its own.
	discovered, err := federate.New(federate.Config{Children: []federate.Child{
		{Asker: children[0].Asker}, {Asker: children[1].Asker},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustAsk(t, discovered, "X"); !reflect.DeepEqual(got, mustAsk(t, single, "X")) {
		t.Errorf("discovered federation diverged from the single mediator")
	}
}

func TestClientFunctorsAndStats(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	inputs := workload.BrochureStore(2, 1, 2, 4)
	_, c := childServer(t, prog, inputs)

	fs, err := c.Functors()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Pview1", "Pview2"}; !reflect.DeepEqual(fs, want) {
		t.Errorf("Functors() = %v, want %v", fs, want)
	}
	if _, err := c.Ask("X", "Pview1"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Err != nil {
		t.Fatalf("remote stats errored: %v", st.Err)
	}
	if st.Generation != 1 {
		t.Errorf("remote generation = %d, want 1", st.Generation)
	}
	if st.Asks == 0 {
		t.Errorf("remote stats show no asks: %+v", st)
	}
}

func TestClientRemoteErrorCode(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(1))
	_, c := childServer(t, prog, workload.BrochureStore(1, 1, 1, 1))
	_, err := c.Ask("< unclosed")
	var remote *federate.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if remote.Code != "parse_error" || remote.Status != 400 {
		t.Errorf("RemoteError = %+v, want parse_error/400", remote)
	}
}

// TestKilledChildDegrades closes one child's listener mid-flight: the
// parent's next ask degrades to the surviving shard's answers, and
// the shard status shows the outage.
func TestKilledChildDegrades(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 17)
	plans := federate.PlanShards(prog, 2)
	ts0, c0 := childServer(t, plans[0].Prog, inputs)
	_, c1 := childServer(t, plans[1].Prog, inputs)
	fed, err := federate.New(federate.Config{
		Children: []federate.Child{
			{Name: "dying", Asker: c0, Functors: plans[0].Functors},
			{Name: "alive", Asker: c1, Functors: plans[1].Functors},
		},
		Guard: &federate.GuardOptions{
			Timeout: time.Second,
			Retry:   &source.RetryOptions{MaxAttempts: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthyWant := mustAsk(t, fed, "X")
	ts0.Close() // the kill

	answers, err := fed.Ask("X")
	if err != nil {
		t.Fatalf("degraded ask must not error, got %v", err)
	}
	got := renderAnswers(answers)
	if len(got) == 0 || len(got) >= len(healthyWant) {
		t.Errorf("degraded ask returned %d answers, want a non-empty strict subset of %d",
			len(got), len(healthyWant))
	}
	var alive, dying mediator.ShardStatus
	for _, sh := range fed.Stats().Shards {
		switch sh.Name {
		case "alive":
			alive = sh
		case "dying":
			dying = sh
		}
	}
	if !alive.Healthy || dying.Healthy {
		t.Errorf("shard health after kill: alive=%+v dying=%+v", alive, dying)
	}
	if !alive.Remote || !dying.Remote {
		t.Error("remote children not flagged Remote in shard status")
	}
}

// TestHungChildIntrospectionIsBounded: a child that accepts /stats and
// /functors but never answers must not hang its parent. Both calls give
// up at the client's own deadline, so Stats reports the error, Functors
// degrades to the healthy child, and the parent's /healthz — which
// folds every child's Stats — answers "degraded" instead of never.
func TestHungChildIntrospectionIsBounded(t *testing.T) {
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // the caller giving up is the only way out
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(hung.CloseClientConnections) // first: Close waits for handlers
	hungClient := federate.NewClient(hung.URL, nil)
	t.Cleanup(hungClient.Close)

	prog := yatl.MustParse(workload.SelectiveProgram(2))
	inputs := workload.BrochureStore(2, 1, 2, 4)
	plans := federate.PlanShards(prog, 2)
	_, alive := childServer(t, plans[0].Prog, inputs)
	fed, err := federate.New(federate.Config{
		Children: []federate.Child{
			{Name: "alive", Asker: alive, Functors: plans[0].Functors},
			{Name: "hung", Asker: hungClient, Functors: plans[1].Functors},
		},
		Guard: &federate.GuardOptions{Retry: &source.RetryOptions{MaxAttempts: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// within fails the test — instead of hanging it — when a call
	// outlives the bound by more than scheduling slack.
	within := func(what string, call func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); call() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked on the hung child after 5s", what)
		}
	}
	within("Client.Stats beside Federation.Functors", func() {
		stats := make(chan mediator.Stats)
		go func() { stats <- hungClient.Stats() }()
		fs, err := fed.Functors()
		if err != nil || !reflect.DeepEqual(fs, plans[0].Functors) {
			t.Errorf("Functors = %v, %v; want the healthy child's %v", fs, err, plans[0].Functors)
		}
		if st := <-stats; st.Err == nil {
			t.Error("Stats of a hung child reports no error")
		}
	})

	s, err := serve.New(serve.Config{Askers: []mediator.Asker{fed}, Prog: prog, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	parent := httptest.NewServer(s.Handler())
	t.Cleanup(parent.Close)
	within("the parent's /healthz", func() {
		resp, err := http.Get(parent.URL + "/healthz")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		var doc struct{ Status string }
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Status != "degraded" {
			t.Errorf("healthz = %d %q (%v), want 200 degraded", resp.StatusCode, doc.Status, err)
		}
	})
}

// TestNoGoroutineLeak pins that a full remote-federation lifecycle —
// serve children, scatter asks, shut down — leaves no goroutines
// behind.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		prog := yatl.MustParse(workload.SelectiveProgram(2))
		inputs := workload.BrochureStore(2, 1, 2, 2)
		plans := federate.PlanShards(prog, 2)
		ts0, c0 := childServer(t, plans[0].Prog, inputs)
		ts1, c1 := childServer(t, plans[1].Prog, inputs)
		fed, err := federate.New(federate.Config{Children: []federate.Child{
			{Asker: c0, Functors: plans[0].Functors},
			{Asker: c1, Functors: plans[1].Functors},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := fed.Ask("X"); err != nil {
				t.Fatal(err)
			}
		}
		c0.Close()
		c1.Close()
		ts0.Close()
		ts1.Close()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// recordingTransport counts CloseIdleConnections calls — the
// observable half of Close's ownership contract.
type recordingTransport struct {
	http.Transport
	closes atomic.Int64
}

func (rt *recordingTransport) CloseIdleConnections() {
	rt.closes.Add(1)
	rt.Transport.CloseIdleConnections()
}

// Close must never tear down a caller-supplied http.Client's
// connection pool: the federation does not own it.
func TestCloseLeavesCallerClientAlone(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(1))
	ts, _ := childServer(t, prog, workload.BrochureStore(1, 1, 1, 1))

	rt := &recordingTransport{}
	c := federate.NewClient(ts.URL, &federate.ClientOptions{
		HTTPClient: &http.Client{Transport: rt},
	})
	if _, err := c.Ask("X", "Pview1"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if n := rt.closes.Load(); n != 0 {
		t.Fatalf("Close drained a caller-supplied client's pool %d times", n)
	}
}

// Asks after Close fail deterministically with the typed error
// instead of racing a torn-down transport.
func TestAskAfterCloseIsTypedError(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(1))
	ts, _ := childServer(t, prog, workload.BrochureStore(1, 1, 1, 1))
	c := federate.NewClient(ts.URL, nil)
	if _, err := c.Ask("X", "Pview1"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, err := c.Ask("X", "Pview1")
	var closed *federate.ClosedError
	if !errors.As(err, &closed) {
		t.Fatalf("post-Close Ask: %v, want *ClosedError", err)
	}
	if _, err := c.Functors(); !errors.As(err, &closed) {
		t.Fatalf("post-Close Functors: %v, want *ClosedError", err)
	}
	if st := c.Stats(); !errors.As(st.Err, &closed) {
		t.Fatalf("post-Close Stats.Err: %v, want *ClosedError", st.Err)
	}
}

// cannedClient dials a child that answers every /ask?keys=1 with reply,
// as it stands, and knows no other endpoint.
func cannedClient(t *testing.T, reply []byte) *federate.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ask" {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("keys") != "1" {
			t.Errorf("client asked %s, want /ask?keys=1", r.URL)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	}))
	t.Cleanup(ts.Close)
	c := federate.NewClient(ts.URL, nil)
	t.Cleanup(c.Close)
	return c
}

// TestClientDecodesBothReplyLayouts is the mixed-version federation
// guarantee: a child of the previous release replies indented, a
// current one compact, and both decode through Client.AskContext to
// the same answers and the same merge keys — so a parent merges their
// streams byte-identically whichever release each child runs. Only the
// current one's members are in the encoder's own form, so only they
// are forwarded; the previous release's are rendered again. The
// indented reply is the golden captured from the previous release's
// server (internal/serve/testdata).
func TestClientDecodesBothReplyLayouts(t *testing.T) {
	indented, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "ask_keyed_indented.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	compact.WriteByte('\n')
	if bytes.Equal(indented, compact.Bytes()) {
		t.Fatal("golden is not indented; the test would compare a reply with itself")
	}
	ask := func(reply []byte) []mediator.Answer {
		answers, err := cannedClient(t, reply).AskContext(context.Background(), "X", "Pview1")
		if err != nil {
			t.Fatal(err)
		}
		return answers
	}
	old, cur := ask(indented), ask(compact.Bytes())
	if len(old) == 0 || len(old) != len(cur) {
		t.Fatalf("%d answers from the indented reply, %d from the compact one", len(old), len(cur))
	}
	if !reflect.DeepEqual(renderAnswers(old), renderAnswers(cur)) {
		t.Errorf("answers differ:\nindented %v\n compact %v", renderAnswers(old), renderAnswers(cur))
	}
	for i := range old {
		if old[i].MergeKey() != cur[i].MergeKey() {
			t.Errorf("answer %d: merge key %q (indented) vs %q (compact)", i, old[i].MergeKey(), cur[i].MergeKey())
		}
		// The producer's key is the one this release computes for the
		// re-parsed answer: the merge order cannot depend on the layout.
		local := mediator.Answer{Name: cur[i].Name, Binding: cur[i].Binding}
		if local.MergeKey() != cur[i].MergeKey() {
			t.Errorf("answer %d: wire key %q, locally %q", i, cur[i].MergeKey(), local.MergeKey())
		}
		if old[i].WireMembers() != "" || cur[i].WireMembers() == "" {
			t.Errorf("answer %d: forwarding %q from the indented reply and %q from the compact one, want none and some",
				i, old[i].WireMembers(), cur[i].WireMembers())
		}
	}
	// Rendered again or forwarded, a parent serves the same bytes.
	for _, keyed := range []bool{false, true} {
		if a, b := wire.AppendAskResponse(nil, 1, old, keyed), wire.AppendAskResponse(nil, 1, cur, keyed); !bytes.Equal(a, b) {
			t.Errorf("keyed=%v: a parent would serve\n%s from the indented reply and\n%s from the compact one", keyed, a, b)
		}
	}
}

// TestClientRefusesDoubtfulReplies: a 200 reply the decoder refuses — a
// count that disagrees with the answers carried (a cut stream, which
// the parent's own count would otherwise launder into a consistent
// short reply), a display form that does not parse, malformed JSON —
// fails the ask with a typed error naming the shard, and a federation
// degrades that shard instead of serving what it sent: asked by a Go
// caller, which gets parsed answers, and through a parent's /ask, which
// relays them unparsed (wire.RelayAskResponse) and refuses alike.
func TestClientRefusesDoubtfulReplies(t *testing.T) {
	const short = `{"generation":1,"count":30,"answers":[{"name":"Pview2(\"a\")","key":"Pview2(string:\"a\")\u0000"}]}`
	forged := map[string]string{
		short: "count is 30, the reply carries 1 answers",
		`{"generation":1,"count":1,"answers":[{"name":"Pview2("}]}`:                      "unparseable answer name",
		`{"generation":1,"count":1,"answers":[{"name":"b1","binding":{"N":"a <"}}]}`:     `unparseable binding N="a <"`,
		`{"generation":1,"count":1,"answers":[{"name":"b1"}`:                             "expected ',' or ']'",
		`{"generation":1,"count":1,"answers":[{"name":"b1"},{"name":"b1","name":"b2"}]}`: `duplicate member "name"`,
		`{"generation":1,"count":1,"Answers":[{"name":"b1"}]}`:                           "only in case",
		// In the encoder's own form and keyed, so a relay checks them
		// without parsing.
		`{"generation":1,"count":1,"answers":[{"name":"Pview2(","key":"k"}]}`:                                "unparseable answer name",
		`{"generation":1,"count":1,"answers":[{"name":"b1","binding":{"N":"a \u003c"},"key":"k"}]}`:          `unparseable binding N="a <"`,
		`{"generation":1,"count":1,"answers":[{"name":"b1","binding":{"M":"1","N":"1","N":"2"},"key":"k"}]}`: `duplicate binding variable "N"`,
	}
	for reply, want := range forged {
		c := cannedClient(t, []byte(reply))
		answers, err := c.Ask("X")
		var derr *wire.DecodeError
		if !errors.As(err, &derr) || !strings.HasPrefix(err.Error(), "shard "+c.Name()+": ") || !strings.Contains(err.Error(), want) || answers != nil {
			t.Errorf("%s:\n%d answers, error %v; want a *wire.DecodeError of shard %s saying %q", reply, len(answers), err, c.Name(), want)
		}
	}

	prog := yatl.MustParse(workload.SelectiveProgram(2))
	plans := federate.PlanShards(prog, 2)
	_, honest := childServer(t, plans[0].Prog, workload.BrochureStore(2, 1, 2, 4))
	federation := func(forged string) *federate.Federation {
		fed, err := federate.New(federate.Config{
			Children: []federate.Child{
				{Name: "honest", Asker: honest, Functors: plans[0].Functors},
				{Name: "forged", Asker: cannedClient(t, []byte(forged)), Functors: plans[1].Functors},
			},
			Guard: &federate.GuardOptions{Retry: &source.RetryOptions{MaxAttempts: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}
	degraded := func(fed *federate.Federation, reply, want string) {
		t.Helper()
		for _, sh := range fed.Stats().Shards {
			if sh.Healthy != (sh.Name == "honest") {
				t.Errorf("%s: shard %s healthy=%v (%s)", reply, sh.Name, sh.Healthy, sh.LastErr)
			}
			if sh.Name == "forged" && !strings.Contains(sh.LastErr, want) {
				t.Errorf("%s: the forged shard's last error %q does not say %q", reply, sh.LastErr, want)
			}
		}
	}
	want := mustAsk(t, honest, "X")
	fed := federation(short)
	if got := mustAsk(t, fed, "X"); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("federation served %v, want the honest shard's %v alone", got, want)
	}
	degraded(fed, short, "count is 30")

	for reply, why := range forged {
		fed := federation(reply)
		s, err := serve.New(serve.Config{Askers: []mediator.Asker{fed}})
		if err != nil {
			t.Fatal(err)
		}
		parent := httptest.NewServer(s.Handler())
		resp, err := http.Post(parent.URL+"/ask", "application/json", strings.NewReader(`{"pattern":"X"}`))
		if err != nil {
			t.Fatal(err)
		}
		var out wire.AskResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		parent.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Count != len(want) {
			t.Errorf("%s: the parent's /ask replied %d with %d answers (%v), want the honest shard's %d",
				reply, resp.StatusCode, out.Count, err, len(want))
		}
		degraded(fed, reply, why)
	}
}

// TestClientReplyTooLarge: a reply past the client's cap is refused as
// too large — typed, with a stable code — and, when the child states
// its size, before a byte of it is read.
func TestClientReplyTooLarge(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// 64 MiB and a byte, declared and never sent: the connection is cut
		// when the handler returns.
		w.Header().Set("Content-Length", strconv.Itoa(64<<20+1))
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	c := federate.NewClient(ts.URL, nil)
	t.Cleanup(c.Close)
	_, err := c.Ask("X")
	var remote *federate.RemoteError
	if !errors.As(err, &remote) || remote.Code != "reply_too_large" || remote.Status != http.StatusOK {
		t.Fatalf("err = %v, want a *RemoteError reply_too_large", err)
	}
}

// TestClientAskAllocs bounds what relaying one answer costs a parent:
// decoding a child's 30-answer keyed reply — the benchmark's
// serve_federated shape — took 794 allocations through json.Unmarshal
// and a parse of every display form into a throwaway node, and
// encoding the merged 60 answers of two such replies rendered every
// tree again; then the decode was one pass (374 allocations) and the
// encode a copy. A relay — what a parent serving /ask reads — parses
// nothing it forwards: a handful of allocations per reply, not per
// answer.
func TestClientAskAllocs(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	med := mediator.New(prog, workload.BrochureStore(120, 3, 30, 1), mediator.WithDemandDriven(true))
	var replies [2][]byte
	for i, functor := range []string{"Pview1", "Pview2"} {
		answers, err := med.Ask(`view < -> name -> N, -> city -> C, -> zip -> Z >`, functor)
		if err != nil || len(answers) != 30 {
			t.Fatalf("%s: %d answers (%v), want the benchmark's 30", functor, len(answers), err)
		}
		replies[i] = wire.AppendAskResponse(nil, 1, answers, true)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (int64, []mediator.Answer, error)
		max    float64
	}{
		{"decoding", wire.DecodeAskResponse, 320},
		{"relaying", wire.RelayAskResponse, 8},
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := c.decode(replies[0]); err != nil {
				t.Fatal(err)
			}
		}); n > c.max {
			t.Errorf("%s a 30-answer keyed reply: %v allocations, want <= %v", c.name, n, c.max)
		}

		var merged []mediator.Answer
		for _, reply := range replies {
			_, answers, err := c.decode(reply)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, answers...)
		}
		buf := make([]byte, 0, 16<<10)
		for _, keyed := range []bool{false, true} {
			if n := testing.AllocsPerRun(100, func() { buf = wire.AppendAskResponse(buf[:0], 1, merged, keyed) }); n > 8 {
				t.Errorf("%s, keyed=%v: encoding 60 forwarded answers: %v allocations, want <= 8", c.name, keyed, n)
			}
		}
	}
}
