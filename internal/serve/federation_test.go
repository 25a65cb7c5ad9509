package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// newFederatedServer fronts an in-process federation with the serve
// pool: one router lane, cfg.Askers mode.
func newFederatedServer(t *testing.T, shards int) (*federate.Federation, *Server, string) {
	t.Helper()
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 11)
	fed, err := federate.New(federate.Config{
		Programs: []*yatl.Program{prog},
		Shards:   shards,
		Inputs:   inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Askers: []mediator.Asker{fed},
		Prog:   prog,
		Inputs: inputs,
	})
	return fed, s, ts.URL
}

func TestFederatedServerAsk(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, out := postAsk(t, url, wire.AskRequest{Pattern: "X", Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count == 0 {
		t.Fatal("federated ask returned no answers")
	}
	for _, a := range out.Answers {
		if !strings.HasPrefix(a.Name, "Pview1(") {
			t.Errorf("answer outside the asked functor: %s", a.Name)
		}
	}
}

func TestFederatedServerUnroutable(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, _ := postAsk(t, url, wire.AskRequest{Pattern: "X", Functors: []string{"Pnope"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "unroutable_functor" {
		t.Errorf("code %q, want unroutable_functor", e.Code)
	}
}

// A malformed pattern is a 400 from a federation as from a mediator,
// however often it is sent, and costs the shards nothing: the next
// well-formed ask is answered and every shard is still healthy.
func TestFederatedServerMalformedPattern(t *testing.T) {
	fed, _, url := newFederatedServer(t, 2)
	for i := 0; i < 6; i++ {
		resp, _ := postAsk(t, url, wire.AskRequest{Pattern: "view < -> name ->"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed ask %d: status %d, want 400", i, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != "parse_error" {
			t.Fatalf("malformed ask %d: code %q, want parse_error", i, e.Code)
		}
	}
	resp, out := postAsk(t, url, wire.AskRequest{Pattern: "X"})
	if resp.StatusCode != http.StatusOK || out.Count == 0 {
		t.Fatalf("well-formed ask after the malformed ones: status %d, %d answers", resp.StatusCode, out.Count)
	}
	for _, sh := range fed.Stats().Shards {
		if !sh.Healthy || sh.Breaker != "closed" || sh.Failures != 0 {
			t.Errorf("shard %+v, want healthy with a closed breaker and no failure", sh)
		}
	}
}

func TestFederatedServerHealthzShards(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc wire.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Errorf("status %q, want ok", doc.Status)
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("healthz lists %d shards, want 2: %+v", len(doc.Shards), doc.Shards)
	}
	for _, sh := range doc.Shards {
		if !sh.Healthy {
			t.Errorf("shard %s unhealthy at rest: %+v", sh.Name, sh)
		}
	}
}

func TestFederatedServerStatsShards(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	if resp, _ := postAsk(t, url, wire.AskRequest{Pattern: "X"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up ask status %d", resp.StatusCode)
	}
	resp, err := http.Get(url + "/stats?timing=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Mediator.Shards) != 2 {
		t.Fatalf("stats list %d shards, want 2", len(doc.Mediator.Shards))
	}
	for _, sh := range doc.Mediator.Shards {
		if sh.Asks == 0 {
			t.Errorf("shard %s saw no asks after the warm-up", sh.Name)
		}
	}
	if doc.Server.Pool != 1 {
		t.Errorf("pool = %d, want 1 (the federation router is the lane)", doc.Server.Pool)
	}
}

func TestFederatedServerReloadUnsupported(t *testing.T) {
	fed, _, url := newFederatedServer(t, 2)
	resp, err := http.Post(url+"/admin/reload", "text/plain",
		strings.NewReader(workload.SelectiveProgram(2)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "reload_unsupported" {
		t.Errorf("code %q, want reload_unsupported", e.Code)
	}
	// The federation kept serving the original program.
	if _, err := fed.Ask("X", "Pview4"); err != nil {
		t.Errorf("federation broken after rejected reload: %v", err)
	}
}

func TestFederatedServerRefreshUnsupported(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	inputs := workload.BrochureStore(2, 1, 2, 3)
	fed, err := federate.New(federate.Config{
		Programs: []*yatl.Program{prog}, Shards: 2, Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Declare a source so the name check passes and the lane-capability
	// check is what answers.
	_, ts := newTestServer(t, Config{
		Askers:  []mediator.Asker{fed},
		Prog:    prog,
		Sources: []source.Source{source.Static("src1", inputs)},
	})
	resp, err := http.Post(ts.URL+"/admin/refresh-source/src1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "refresh_unsupported" {
		t.Errorf("code %q, want refresh_unsupported", e.Code)
	}
}

// TestAskKeysParameter pins the ?keys=1 contract the shard client
// relies on: keys appear when asked for, never otherwise.
func TestAskKeysParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, a := range out.Answers {
		if a.Key != "" {
			t.Fatalf("key present without ?keys=1: %+v", a)
		}
	}
	// postAsk appends /ask itself; issue the keyed request directly.
	body := `{"pattern": "` + tagPattern + `", "functors": ["Pview1"]}`
	r, err := http.Post(ts.URL+"/ask?keys=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var keyed wire.AskResponse
	if err := json.NewDecoder(r.Body).Decode(&keyed); err != nil {
		t.Fatal(err)
	}
	if keyed.Count == 0 {
		t.Fatal("keyed ask returned no answers")
	}
	for _, a := range keyed.Answers {
		if a.Key == "" {
			t.Fatalf("key missing under ?keys=1: %+v", a)
		}
		if !strings.Contains(a.Key, "\x00") {
			t.Errorf("key %q lacks the name/binding separator", a.Key)
		}
	}
}

// remoteFederation builds the two-tier topology over real HTTP: one
// yatserve per shard of prog, a shard client each, and the parent
// server over their federation. wrap, when set, stands a different
// child in front of shard 0's server.
func remoteFederation(t *testing.T, prog *yatl.Program, inputs *tree.Store, shards int, wrap func(childURL string) string) string {
	t.Helper()
	var children []federate.Child
	for i, p := range federate.PlanShards(prog, shards) {
		_, ts := newTestServer(t, Config{Prog: p.Prog, Inputs: inputs})
		url := ts.URL
		if i == 0 && wrap != nil {
			url = wrap(url)
		}
		children = append(children, federate.Child{Asker: shardClient(t, url), Functors: p.Functors})
	}
	return serveFederation(t, children...)
}

func shardClient(t testing.TB, url string) *federate.Client {
	t.Helper()
	c := federate.NewClient(url, nil)
	t.Cleanup(c.Close)
	return c
}

// serveFederation fronts a federation over children with a server and
// returns its URL.
func serveFederation(t *testing.T, children ...federate.Child) string {
	t.Helper()
	fed, err := federate.New(federate.Config{Children: children})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Askers: []mediator.Asker{fed}})
	return ts.URL
}

// previousRelease stands in front of a child and re-indents its ask
// replies — the same document the previous release sent, in the layout
// it sent it.
func previousRelease(t *testing.T) func(childURL string) string {
	return func(childURL string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, err := http.NewRequestWithContext(r.Context(), r.Method, childURL+r.URL.RequestURI(), r.Body)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if r.URL.Path == "/ask" && resp.StatusCode == http.StatusOK {
				var indented bytes.Buffer
				if err := json.Indent(&indented, body, "", "  "); err != nil {
					t.Error(err)
				}
				body = indented.Bytes()
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(body)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
}

// TestRemoteFederationServesTheSingleServersBytes is the forwarding
// contract where a client sees it. A parent relays its children's
// rendered members instead of rendering their trees again, and for
// shards 1, 2 and 4 its /ask and /ask?keys=1 bodies are byte for byte
// the unsharded server's — also when one child is of the previous
// release, whose indented members are not forwarded but rendered, and
// through a second tier, where a grandparent forwards what the parent
// forwarded.
func TestRemoteFederationServesTheSingleServersBytes(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 11)
	_, single := newTestServer(t, Config{Prog: prog, Inputs: inputs})
	const view = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	asks := []wire.AskRequest{
		{Pattern: "X"}, // binds whole trees
		{Pattern: view},
		{Pattern: view, Functors: []string{"Pview3"}},
		{Pattern: "X", Functors: []string{"Pview4", "Pview1"}},
	}
	check := func(topology, url string) {
		t.Helper()
		for _, req := range asks {
			for _, query := range []string{"", "?keys=1"} {
				_, want := rawAsk(t, single.URL, query, req)
				resp, got := rawAsk(t, url, query, req)
				checkAskFraming(t, resp, got)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: /ask%s %+v differs from the single server:\n got %s\nwant %s", topology, query, req, got, want)
				}
			}
		}
	}
	for _, shards := range []int{1, 2, 4} {
		parent := remoteFederation(t, prog, inputs, shards, nil)
		check(fmt.Sprintf("%d shards", shards), parent)
		check(fmt.Sprintf("%d shards, one of the previous release", shards), remoteFederation(t, prog, inputs, shards, previousRelease(t)))
		check(fmt.Sprintf("grandparent over %d shards", shards), serveFederation(t, federate.Child{Asker: shardClient(t, parent)}))
	}

	// What makes the bytes equal differs: a current child's members come
	// back forwardable, the previous release's do not.
	for url, forwarded := range map[string]bool{single.URL: true, previousRelease(t)(single.URL): false} {
		answers, err := shardClient(t, url).Ask(view, "Pview1")
		if err != nil || len(answers) == 0 {
			t.Fatalf("%d answers, %v", len(answers), err)
		}
		for _, a := range answers {
			if (a.WireMembers() != "") != forwarded {
				t.Errorf("forwarded=%v child: answer %s carries members %q", forwarded, a.Name, a.WireMembers())
			}
		}
	}
}

// TestRelayedAnswersKeepTheChildsForms records the one intended change
// in behaviour: a display form that does not survive ParseValue ∘
// Display — "1.50" parses to the float that displays "1.5", a spaced
// Skolem argument to the unspaced name — used to reach the parent's
// caller re-rendered, silently; forwarded, it arrives as the child
// wrote it, through one tier and through two.
func TestRelayedAnswersKeepTheChildsForms(t *testing.T) {
	const members = `"name":"Pview1( 1 )","binding":{"F":"1.50","S":"\"a\u003cb\""}`
	const reply = `{"generation":1,"count":1,"answers":[{` + members + `,"key":"Pview1(int:1)\u0000F=1.5;S=\"a\u003cb\";"}]}` + "\n"
	canned := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ask" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(reply))
	}))
	t.Cleanup(canned.Close)
	parent := serveFederation(t, federate.Child{Asker: shardClient(t, canned.URL), Functors: []string{"Pview1"}})
	grandparent := serveFederation(t, federate.Child{Asker: shardClient(t, parent), Functors: []string{"Pview1"}})
	for tier, url := range map[string]string{"parent": parent, "grandparent": grandparent} {
		if _, got := rawAsk(t, url, "?keys=1", wire.AskRequest{Pattern: "X"}); string(got) != reply {
			t.Errorf("%s, keyed:\n got %s\nwant %s", tier, got, reply)
		}
		want := `{"generation":1,"count":1,"answers":[{` + members + `}]}` + "\n"
		if _, got := rawAsk(t, url, "", wire.AskRequest{Pattern: "X"}); string(got) != want {
			t.Errorf("%s, bare:\n got %s\nwant %s", tier, got, want)
		}
	}
	// The typed answer is what the forms parse to, as ever.
	answers, err := shardClient(t, parent).Ask("X")
	if err != nil || len(answers) != 1 || answers[0].Name.String() != "Pview1(1)" || answers[0].Binding["F"].Display() != "1.5" {
		t.Errorf("typed answers %+v, %v", answers, err)
	}
}

// TestFederatedReplyGenerationIsTheMerged is the regression for a
// federated reply labelled with a generation none of its answers came
// from. Child a answers at generation 1. While child b's reply is held
// back, a reloads, and a /functors call through the parent's client
// for a observes generation 2, which b's reply then carries too. The
// reply merges a's generation-1 answer, so it says 1; read off the
// clients after the gather, as it was, it said 2.
func TestFederatedReplyGenerationIsTheMerged(t *testing.T) {
	var functorsGen atomic.Int64
	functorsGen.Store(5)
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ask":
			io.WriteString(w, `{"generation":1,"count":1,"answers":[{"name":"Pview1(1)","key":"Pview1(int:1)\u0000"}]}`+"\n")
		case "/functors":
			fmt.Fprintf(w, `{"functors":["Pview1"],"generation":%d}`, functorsGen.Load())
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(a.Close)
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release
		io.WriteString(w, `{"generation":2,"count":1,"answers":[{"name":"Pview2(1)","key":"Pview2(int:1)\u0000"}]}`+"\n")
	}))
	t.Cleanup(b.Close)
	t.Cleanup(unblock) // runs before b.Close
	clientA := shardClient(t, a.URL)
	// The client for a starts out having seen generation 5, so the moment
	// it has decoded a's reply shows.
	if _, err := clientA.Functors(); err != nil || clientA.Generation() != 5 {
		t.Fatalf("client for a at generation %d (%v), want 5", clientA.Generation(), err)
	}
	url := serveFederation(t,
		federate.Child{Asker: clientA, Functors: []string{"Pview1"}},
		federate.Child{Asker: shardClient(t, b.URL), Functors: []string{"Pview2"}})

	type reply struct {
		body []byte
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/ask", "application/json", strings.NewReader(`{"pattern":"X"}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- reply{body, err}
	}()
	<-arrived
	for deadline := time.Now().Add(10 * time.Second); clientA.Generation() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the parent never decoded child a's reply")
		}
	}
	functorsGen.Store(2)
	if _, err := clientA.Functors(); err != nil || clientA.Generation() != 2 {
		t.Fatalf("client for a at generation %d (%v), want 2", clientA.Generation(), err)
	}
	unblock()
	got := <-done
	const want = `{"generation":1,"count":2,"answers":[{"name":"Pview1(1)"},{"name":"Pview2(1)"}]}` + "\n"
	if got.err != nil || string(got.body) != want {
		t.Errorf("reply %s (%v), want %s", got.body, got.err, want)
	}
}

// memoRule is one view of SelectiveProgram over root-labelled trees.
func memoRule(i int, root string) string {
	return fmt.Sprintf(`
rule View%d {
  head Pview%d(SN) = view < -> name -> SN, -> city -> C, -> zip -> Z >
  from Pbr = %s < -> number -> Num, -> title -> T,
                  -> model -> Year, -> desc -> D,
                  -> spplrs -*> supplier < -> name -> SN, -> address -> Add > >
  let C = city(Add)
  let Z = zip(Add)
}
`, i, i, root)
}

// memoWorld is one state of the reply memo tests' data: brochures that
// never change, and catalogues (brochure trees under another label)
// that differ from world to world.
func memoWorld(world int) *tree.Store {
	store := workload.BrochureStore(4, 2, 4, 11)
	seed := uint64(5 + world)
	for i, b := range workload.Brochures(3+2*world, 2, workload.Suppliers(4, seed), seed) {
		t := b.Tree()
		t.Label = tree.Symbol("catalogue")
		store.Put(tree.PlainName(fmt.Sprintf("c%d", i+1)), t)
	}
	return store
}

// memoFederation is BenchmarkFederatedAsk's topology over memoWorld: a
// parent server over two httptest children, the first serving Pview1
// and Pview2 (brochures) from world 0, the second Pview3 and Pview4
// (catalogues) from a source the test moves between worlds and
// refreshes with POST /admin/refresh-source/src. A refresh of the
// second child therefore moves only its own views, and the parent's
// reply stays one a single server over the current world gives. The
// children grant read leases only when leases is set.
type memoFederation struct {
	fed       *federate.Federation
	parent    string
	fault     *source.Fault   // the second child's source
	second    string          // the second child's URL
	secondSrv *Server         // the second child
	down      atomic.Bool     // the second child refuses every request
	single    [2]string       // single servers over each world
	counts    [2]*childCounts // each child's /ask traffic
}

func newMemoFederation(t testing.TB, leases bool) *memoFederation {
	t.Helper()
	m := &memoFederation{fault: source.NewFault("src", memoWorld(0))}
	progs := [2]string{"program selective\n", "program selective\n"}
	for i := 1; i <= 4; i++ {
		root := "brochure"
		if i > 2 {
			root = "catalogue"
		}
		progs[(i-1)/2] += memoRule(i, root)
	}
	for w := range m.single {
		_, ts := newTestServer(t, Config{Prog: yatl.MustParse(progs[0] + progs[1][len("program selective\n"):]), Inputs: memoWorld(w)})
		m.single[w] = ts.URL
	}
	m.counts = [2]*childCounts{{leases: leases}, {leases: leases}}
	first, err := New(Config{Prog: yatl.MustParse(progs[0]), Inputs: memoWorld(0)})
	if err != nil {
		t.Fatal(err)
	}
	second, err := New(Config{Prog: yatl.MustParse(progs[1]), Sources: []source.Source{m.fault}})
	if err != nil {
		t.Fatal(err)
	}
	m.secondSrv = second
	h := m.counts[1].wrap(second.Handler())
	m.second = serveURL(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.down.Load() {
			writeErr(w, http.StatusServiceUnavailable, "unavailable", "child is down")
			return
		}
		h.ServeHTTP(w, r)
	}))
	m.fed, err = federate.New(federate.Config{
		Children: []federate.Child{
			{Asker: shardClient(t, serveURL(t, m.counts[0].wrap(first.Handler()))), Functors: []string{"Pview1", "Pview2"}},
			{Asker: shardClient(t, m.second), Functors: []string{"Pview3", "Pview4"}},
		},
		// A dead child fails each call once and never opens its breaker,
		// so it is asked again the moment it is back.
		Guard: &federate.GuardOptions{Retry: &source.RetryOptions{MaxAttempts: 1},
			Breaker: &source.BreakerOptions{Threshold: 1 << 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, parent := newTestServer(t, Config{Askers: []mediator.Asker{m.fed}})
	m.parent = parent.URL
	return m
}

// traffic is both children's counts now.
func (m *memoFederation) traffic() [2][4]int64 {
	return [2][4]int64{m.counts[0].snapshot(), m.counts[1].snapshot()}
}

// trafficSince is each child's /ask traffic since before: its asks as
// (conditional, unconditional, answered 304), and the body bytes it
// wrote.
func (m *memoFederation) trafficSince(before [2][4]int64) (asks [2][3]int64, bodies [2]int64) {
	now := m.traffic()
	for i := range now {
		for k := range asks[i] {
			asks[i][k] = now[i][k] - before[i][k]
		}
		bodies[i] = now[i][3] - before[i][3]
	}
	return asks, bodies
}

// moveTo points the second child at a world and refreshes it.
func (m *memoFederation) moveTo(t testing.TB, world int) {
	m.fault.SetStore(memoWorld(world))
	resp, err := http.Post(m.second+"/admin/refresh-source/src", "", nil)
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("refresh: status %d", resp.StatusCode)
	}
}

// direct asks the federation as serve's /ask does and says whether the
// reply came from the memo: a memoized reply is not rendered.
func (m *memoFederation) direct(t testing.TB, req wire.AskRequest, keyed bool) (body []byte, memoized bool) {
	rendered := false
	body, err := m.fed.AskReply(context.Background(), req.Pattern, req.Functors, keyed,
		func(generation int64, answers []mediator.Answer) []byte {
			rendered = true
			return wire.AppendAskResponse(nil, generation, answers, keyed)
		})
	if err != nil {
		t.Errorf("AskReply %+v: %v", req, err)
	}
	return body, !rendered
}

var memoAsks = []wire.AskRequest{
	{Pattern: `view < -> name -> N, -> city -> C, -> zip -> Z >`},
	{Pattern: "X", Functors: []string{"Pview3", "Pview1"}},
}

var memoQueries = [2]string{"", "?keys=1"}

// TestFederatedReplyMemo is the reply memo's equivalence: a repeated
// federated ask is served from the memo, byte for byte the first reply
// and the single server's; a child whose view moved, or that failed,
// is never answered for from the memo; and plain and keyed replies are
// memoized apart.
func TestFederatedReplyMemo(t *testing.T) {
	m := newMemoFederation(t, false)
	// check asks through the parent twice, and directly, and returns
	// whether the direct ask was memoized.
	check := func(when string, req wire.AskRequest, query string, want []byte) bool {
		t.Helper()
		for i := 0; i < 2; i++ {
			resp, got := rawAsk(t, m.parent, query, req)
			checkAskFraming(t, resp, got)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: /ask%s %+v, ask %d:\n got %s\nwant %s", when, query, req, i, got, want)
			}
		}
		got, memoized := m.direct(t, req, query != "")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AskReply%s %+v:\n got %s\nwant %s", when, query, req, got, want)
		}
		return memoized
	}
	for _, req := range memoAsks {
		// The plain reply is memoized, and not served for a keyed ask.
		_, want := rawAsk(t, m.single[0], "", req)
		if !check("world 0", req, "", want) {
			t.Errorf("world 0: repeated plain %+v did not come from the memo", req)
		}
		_, wantKeyed := rawAsk(t, m.single[0], "?keys=1", req)
		if bytes.Equal(want, wantKeyed) {
			t.Fatalf("vacuous: %+v is the same plain and keyed", req)
		}
		if got, memoized := m.direct(t, req, true); memoized || !bytes.Equal(got, wantKeyed) {
			t.Errorf("world 0: first keyed %+v memoized=%v:\n got %s\nwant %s", req, memoized, got, wantKeyed)
		}
		if !check("world 0", req, "?keys=1", wantKeyed) {
			t.Errorf("world 0: repeated keyed %+v did not come from the memo", req)
		}
	}

	// Only the second child moves. On the first ask after, the first
	// child answers its validator with a 304 and is asked again without
	// one, for the bytes the memo does not keep. The next ask is
	// unconditional and answered from the memo, as both children send
	// the bytes it saw; on the one after, both answer 304 and nothing is
	// rendered.
	m.moveTo(t, 1)
	for _, req := range memoAsks {
		for _, query := range memoQueries {
			_, old := rawAsk(t, m.single[0], query, req)
			_, want := rawAsk(t, m.single[1], query, req)
			if bytes.Equal(old, want) {
				t.Fatalf("vacuous: the refresh did not move %+v", req)
			}
			for i, step := range []struct {
				memoized bool
				asks     [2][3]int64 // per child (conditional, unconditional, 304)
				bodies   bool
			}{
				{false, [2][3]int64{{1, 1, 1}, {1, 0, 0}}, true},
				{true, [2][3]int64{{0, 1, 0}, {0, 1, 0}}, true},
				{true, [2][3]int64{{1, 0, 1}, {1, 0, 1}}, false},
			} {
				before := m.traffic()
				if got, memoized := m.direct(t, req, query != ""); memoized != step.memoized || !bytes.Equal(got, want) {
					t.Errorf("world 1: /ask%s %+v, ask %d memoized=%v:\n got %s\nwant %s", query, req, i, memoized, got, want)
				}
				asks, bodies := m.trafficSince(before)
				if asks != step.asks || (bodies[0] != 0) != step.bodies || (bodies[1] != 0) != step.bodies {
					t.Errorf("world 1: /ask%s %+v, ask %d: children asked (conditional, unconditional, 304) %v, wrote %v body bytes;"+
						" want %v and body bytes %v", query, req, i, asks, bodies, step.asks, step.bodies)
				}
			}
			if !check("world 1", req, query, want) {
				t.Errorf("world 1: repeated /ask%s %+v did not come from the memo", query, req)
			}
		}
	}

	// The second child moves before every ask. Only the first ask after
	// a replay is conditional; the unchanged child is asked once per ask
	// from then on, not a 304 and a re-ask each time.
	churn := memoAsks[1]
	for i, world := range []int{0, 1, 0, 1} {
		m.moveTo(t, world)
		_, want := rawAsk(t, m.single[world], "", churn)
		before := m.traffic()
		if got, memoized := m.direct(t, churn, false); memoized || !bytes.Equal(got, want) {
			t.Errorf("churn, ask %d memoized=%v:\n got %s\nwant %s", i, memoized, got, want)
		}
		wantAsks := [2][3]int64{{0, 1, 0}, {0, 1, 0}}
		if i == 0 {
			wantAsks = [2][3]int64{{1, 1, 1}, {1, 0, 0}}
		}
		if asks, _ := m.trafficSince(before); asks != wantAsks {
			t.Errorf("churn, ask %d: children asked (conditional, unconditional, 304) %v, want %v", i, asks, wantAsks)
		}
	}

	// A dead child's share is missing, and the memo neither serves the
	// reply nor keeps it: the first ask after the child returns is
	// complete, also for an ask only ever made while it was down. The
	// live child is asked once per ask, but for the first ask of one the
	// memo had just replayed: its 304 has to be followed by a re-ask.
	downAsk := wire.AskRequest{Pattern: "X"}
	m.down.Store(true)
	for _, req := range append(memoAsks, downAsk) {
		_, want := rawAsk(t, m.single[1], "", wire.AskRequest{Pattern: req.Pattern, Functors: []string{"Pview1"}})
		if req.Functors == nil {
			_, want = rawAsk(t, m.single[1], "", wire.AskRequest{Pattern: req.Pattern, Functors: []string{"Pview1", "Pview2"}})
		}
		for i := 0; i < 3; i++ {
			before := m.traffic()
			if got, memoized := m.direct(t, req, false); memoized || !bytes.Equal(got, want) {
				t.Errorf("child down: %+v, ask %d memoized=%v:\n got %s\nwant %s", req, i, memoized, got, want)
			}
			asks, _ := m.trafficSince(before)
			if live := asks[0]; live[1] != 1 || live[0] != live[2] || live[0] > 0 && i > 0 {
				t.Errorf("child down: %+v, ask %d: the live child asked (conditional, unconditional, 304) %v,"+
					" want once unconditionally, after a 304 on the first ask at most", req, i, live)
			}
		}
	}
	m.down.Store(false)
	for _, req := range append(memoAsks, downAsk) {
		_, want := rawAsk(t, m.single[1], "", req)
		if got, _ := m.direct(t, req, false); !bytes.Equal(got, want) {
			t.Errorf("child back: %+v:\n got %s\nwant %s", req, got, want)
		}
		if !check("child back", req, "", want) {
			t.Errorf("child back: repeated %+v did not come from the memo", req)
		}
	}
}

// TestFederatedMemoAcrossChildRefresh races parent asks, through HTTP
// and straight into AskReply, against refreshes that move the second
// child between two worlds while the first stays put: every reply is
// one of the two single-server replies, never a memoized one the child
// no longer backs. Both ways a conditional ask ends must be seen:
// replays of the memoized reply, where both children answered 304, and
// re-asks of the first child after a 304, when the second had moved.
// The first child never moves, so it answers every conditional ask
// with a 304, and its 304s past the second child's are re-asks.
func TestFederatedMemoAcrossChildRefresh(t *testing.T) {
	m := newMemoFederation(t, false)
	req := memoAsks[1]
	var want [2][2][]byte // [world][keyed]
	for w := range want {
		for k, query := range memoQueries {
			_, want[w][k] = rawAsk(t, m.single[w], query, req)
			// Memoized, then replayed: both forms start conditional.
			m.direct(t, req, k == 1)
		}
	}
	replays := func() int64 { return m.counts[1].notModified.Load() }
	reasks := func() int64 { return m.counts[0].notModified.Load() - m.counts[1].notModified.Load() }
	warmReplays, warmReasks := replays(), reasks()
	stop := make(chan struct{})
	refreshed := make(chan int)
	go func() {
		n := 0
		defer func() { refreshed <- n }()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			n++
			m.moveTo(t, n%2)
		}
	}()
	var seen [2][2]atomic.Int64 // replies per world and form
	var memoized atomic.Int64
	allSeen := func() bool {
		for w := range seen {
			for k := range seen[w] {
				if seen[w][k].Load() == 0 {
					return false
				}
			}
		}
		return memoized.Load() > 0 && replays() > warmReplays && reasks() > warmReasks
	}
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150 || !allSeen() && time.Now().Before(deadline); i++ {
				k := (a + i) % 2
				var got []byte
				if a%2 == 0 {
					var hit bool
					if got, hit = m.direct(t, req, k == 1); hit {
						memoized.Add(1)
					}
				} else {
					resp, err := http.Post(m.parent+"/ask"+memoQueries[k], "application/json",
						bytes.NewReader(wire.AppendAskRequest(nil, req)))
					if err != nil {
						t.Error(err)
						return
					}
					got, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
				}
				world := -1
				for w := range want {
					if bytes.Equal(got, want[w][k]) {
						world = w
					}
				}
				if world < 0 {
					t.Errorf("reply of neither world:\n got %s\nwant %s\n  or %s", got, want[0][k], want[1][k])
					return
				}
				seen[world][k].Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-refreshed; n < 2 || !allSeen() {
		var counts [2][2]int64
		for w := range seen {
			for k := range seen[w] {
				counts[w][k] = seen[w][k].Load()
			}
		}
		t.Errorf("vacuous: %d refreshes, replies per world and form %v, %d memoized, %d all-304 replays, %d re-asks",
			n, counts, memoized.Load(), replays()-warmReplays, reasks()-warmReasks)
	}
}
