package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// versionedSelective mirrors workload.SelectiveProgram with a version
// tag baked into each view's head, so an answer reveals which program
// edition produced it.
func versionedSelective(tags ...string) string {
	var sb strings.Builder
	sb.WriteString("program selective\n")
	for i, tag := range tags {
		fmt.Fprintf(&sb, `
rule View%d {
  head Pview%d(SN) = view < -> tag -> %q, -> name -> SN, -> city -> C >
  from Pbr = brochure < -> number -> Num, -> title -> T,
                        -> model -> Year, -> desc -> D,
                        -> spplrs -*> supplier < -> name -> SN,
                                                 -> address -> Add > >
  let C = city(Add)
}
`, i+1, i+1, tag)
	}
	return sb.String()
}

const tagPattern = `view < -> tag -> TAG, -> name -> N, -> city -> C >`

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Prog == nil {
		cfg.Prog = yatl.MustParse(versionedSelective("v1", "v1"))
	}
	if cfg.Inputs == nil && len(cfg.Sources) == 0 {
		cfg.Inputs = workload.BrochureStore(6, 2, 5, 11)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// rawAsk POSTs one ask (query is "" or "?explain=1"…) and returns the
// response with its body read.
func rawAsk(t *testing.T, base, query string, req wire.AskRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/ask"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postAsk(t *testing.T, url string, req wire.AskRequest) (*http.Response, wire.AskResponse) {
	t.Helper()
	resp, data := rawAsk(t, url, "", req)
	// Hand the body back so callers can re-read it (e.g. decodeError).
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var out wire.AskResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func decodeError(t *testing.T, resp *http.Response) wire.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]wire.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["error"]
}

func TestAskEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count == 0 || len(out.Answers) != out.Count {
		t.Fatalf("count %d, answers %d", out.Count, len(out.Answers))
	}
	if out.Generation != 1 {
		t.Fatalf("generation %d, want 1", out.Generation)
	}
	for _, a := range out.Answers {
		if !strings.HasPrefix(a.Name, "Pview1(") {
			t.Fatalf("answer outside the asked functor: %s", a.Name)
		}
		if a.Binding["TAG"] != `"v1"` {
			t.Fatalf("TAG binding %q, want %q", a.Binding["TAG"], `"v1"`)
		}
	}
	if out.Profile != nil {
		t.Fatal("unrequested profile in response")
	}
}

func TestAskErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	t.Run("bad-pattern", func(t *testing.T) {
		resp, _ := postAsk(t, ts.URL, wire.AskRequest{Pattern: "view < -> oops"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != "parse_error" {
			t.Fatalf("code %q, want parse_error", e.Code)
		}
	})
	t.Run("missing-pattern", func(t *testing.T) {
		resp, _ := postAsk(t, ts.URL, wire.AskRequest{})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != "bad_request" {
			t.Fatalf("code %q, want bad_request", e.Code)
		}
	})
	t.Run("non-json-body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/ask", "application/json", strings.NewReader("not json"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != "bad_request" {
			t.Fatalf("code %q, want bad_request", e.Code)
		}
	})
	t.Run("wrong-method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/ask")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
}

// Every 400 bad_request of the two asking endpoints is a failed ask in
// /stats, whichever endpoint refused it.
func TestBadRequestsCountAsFailed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	failed := func() int64 {
		t.Helper()
		var stats wire.StatsResponse
		getJSON(t, ts.URL+"/stats?timing=0", &stats)
		return stats.Server.Failed
	}
	for _, c := range []struct {
		name, method, path, body string
	}{
		{"ask-missing-pattern", http.MethodPost, "/ask", `{}`},
		{"ask-non-json-body", http.MethodPost, "/ask", `not json`},
		{"explain-missing-pattern", http.MethodGet, "/explain?functors=Pview1", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := failed()
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
				t.Fatalf("status %d code %q, want 400 bad_request", resp.StatusCode, e.Code)
			}
			if got := failed(); got != before+1 {
				t.Fatalf("server.failed went from %d to %d, want +1", before, got)
			}
		})
	}
}

// ErrorCode is a wire contract; pin the full mapping.
func TestErrorCode(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
	}{
		{&yatl.ParseError{}, "parse_error", 400},
		{fmt.Errorf("wrap: %w", &yatl.ParseError{}), "parse_error", 400},
		{&engine.SafetyError{}, "safety_error", 422},
		{&engine.ErrUnconverted{}, "unconverted", 422},
		{&engine.NonDetError{}, "nondeterministic", 422},
		{&engine.FixpointError{}, "fixpoint_diverged", 422},
		{&mediator.FetchError{}, "sources_unavailable", 503},
		{context.DeadlineExceeded, "timeout", 504},
		{context.Canceled, "canceled", 503},
		{errors.New("boom"), "internal", 500},
	}
	for _, c := range cases {
		code, status := ErrorCode(c.err)
		if code != c.code || status != c.status {
			t.Errorf("ErrorCode(%T) = %q/%d, want %q/%d", c.err, code, status, c.code, c.status)
		}
	}
}

func TestFunctorsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/functors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Generation int64    `json:"generation"`
		Functors   []string `json:"functors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want := []string{"Pview1", "Pview2"}
	if fmt.Sprint(out.Functors) != fmt.Sprint(want) {
		t.Fatalf("functors %v, want %v", out.Functors, want)
	}
}

// The stats parity contract: GET /stats renders the server's
// mediator.Stats through the same StatsView renderer yatprof -stats
// uses, so a server and a directly driven mediator report
// byte-identical documents for the same program and ask sequence.
func TestStatsParity(t *testing.T) {
	prog := yatl.MustParse(versionedSelective("v1", "v1"))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	_, ts := newTestServer(t, Config{Prog: prog, Inputs: inputs})

	ref := mediator.New(prog, inputs, mediator.WithDemandDriven(true))
	asks := []struct {
		pattern  string
		functors []string
	}{
		{tagPattern, []string{"Pview1"}},
		{tagPattern, []string{"Pview1"}}, // warm repeat
		{tagPattern, nil},
	}
	for _, a := range asks {
		if resp, _ := postAsk(t, ts.URL, wire.AskRequest{Pattern: a.pattern, Functors: a.functors}); resp.StatusCode != 200 {
			t.Fatalf("ask status %d", resp.StatusCode)
		}
		// The server answers through AskReply, and its memo holds the
		// reply it rendered: ask the reference the same way.
		if _, err := ref.AskReply(nil, a.pattern, a.functors, false, func(generation int64, answers []mediator.Answer) []byte {
			return wire.AppendAskResponse(nil, generation, answers, false)
		}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/stats?timing=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Mediator json.RawMessage `json:"mediator"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Stats().JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantNorm any
	if err := json.Unmarshal(doc.Mediator, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantNorm); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(wantNorm)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("server /stats diverges from the shared renderer\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

// Request-scoped tracing: explain requests carry an EXPLAIN profile
// covering exactly that request, and the served mediator keeps serving
// untraced (the profile of a later plain ask is absent again). Explain
// replies are the served reply with the profile added, so they are
// framed the same way and honour ?keys=1.
func TestExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}}

	// POST /ask?explain=1 returns the answers plus a request-scoped
	// profile.
	resp, body := rawAsk(t, ts.URL, "?explain=1&keys=1", req)
	checkAskFraming(t, resp, body)
	var out wire.AskResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 || out.Profile == nil || out.Answers[0].Key == "" {
		t.Fatalf("ask?explain=1&keys=1: count=%d profile=%v body=%s", out.Count, out.Profile != nil, body)
	}

	// GET /explain is the query-string form of the same thing.
	resp2, err := http.Get(ts.URL + "/explain?functors=Pview1&pattern=" + url.QueryEscape(tagPattern))
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkAskFraming(t, resp2, body2)
	var out2 wire.AskResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Count != out.Count || out2.Profile == nil {
		t.Fatalf("explain: count=%d (want %d) profile=%v", out2.Count, out.Count, out2.Profile != nil)
	}
	// It takes the served path: the first explained ask warmed the cache,
	// so this one is a memo or demand hit and runs no slice.
	var profile trace.Document
	if err := json.Unmarshal(out2.Profile, &profile); err != nil {
		t.Fatal(err)
	}
	hits := profile.MemoHits
	for _, r := range profile.Rules {
		hits += r.CacheHits
	}
	if hits == 0 || profile.Slices != 0 {
		t.Fatalf("explain after a warm ask: %d memo or demand hits, %d slices; want a hit and no slice run: %s", hits, profile.Slices, out2.Profile)
	}

	// A plain ask afterwards carries no profile: tracing never leaks
	// into the served mediator.
	resp3, body3 := rawAsk(t, ts.URL, "", wire.AskRequest{Pattern: tagPattern})
	checkAskFraming(t, resp3, body3)
	if bytes.Contains(body3, []byte(`"profile"`)) {
		t.Fatalf("plain ask after explain carries a profile: %s", body3)
	}
}

func TestHealthzAndRefresh(t *testing.T) {
	prog := yatl.MustParse(versionedSelective("v1"))
	parts := workload.SplitStore(workload.BrochureStore(6, 2, 5, 11), 2)
	flaky := source.NewFault("src2", parts[1])
	cfg := Config{
		Prog:    prog,
		Sources: []source.Source{source.Static("src1", parts[0]), flaky},
	}
	_, ts := newTestServer(t, cfg)

	health := func() (int, map[string]any) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	// askAll asks four times and returns the one body they all answered
	// with.
	askAll := func(base, when string) []byte {
		t.Helper()
		var first []byte
		for i := 0; i < 4; i++ {
			resp, body := rawAsk(t, base, "", wire.AskRequest{Pattern: tagPattern})
			if resp.StatusCode != 200 {
				t.Fatalf("%s: ask %d status %d: %s", when, i, resp.StatusCode, body)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(body, first) {
				t.Fatalf("%s: ask %d differs from the first\n got %s\nwant %s", when, i, body, first)
			}
		}
		return first
	}
	runsSoFar := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats?timing=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Mediator struct {
				SliceRuns float64 `json:"slice_runs"`
			} `json:"mediator"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc.Mediator.SliceRuns
	}
	refresh := func(name string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/admin/refresh-source/"+name, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Before any ask: no fetches yet, all sources count as healthy.
	if code, out := health(); code != 200 || out["status"] != "ok" {
		t.Fatalf("initial health: %d %v", code, out)
	}

	// One ask warms the server: there is one mediator, so nothing cold
	// is left to fill degraded once src2 goes down.
	resp, warm := rawAsk(t, ts.URL, "", wire.AskRequest{Pattern: tagPattern})
	if resp.StatusCode != 200 {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warm)
	}
	if code, out := health(); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthy: %d %v", code, out)
	}
	runs := runsSoFar()

	// Break src2 and refresh it through the admin endpoint: the refresh
	// is refused, every ask gets the complete warm bytes at the same
	// generation without running anything, and health says why.
	flaky.SetErr(errors.New("src2 down"))
	resp = refresh("src2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refresh of a down source: status %d, want 503", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "sources_unavailable" || !strings.Contains(e.Message, "src2") {
		t.Fatalf("refresh of a down source: %+v, want sources_unavailable naming src2", e)
	}
	if stale := askAll(ts.URL, "src2 down"); !bytes.Equal(stale, warm) {
		t.Fatalf("answers moved while src2 is down\n got %s\nwant %s", stale, warm)
	}
	if got := runsSoFar(); got != runs {
		t.Fatalf("slice_runs %v -> %v across a failed refresh", runs, got)
	}
	code, out := health()
	if code != 200 || out["status"] != "degraded" {
		t.Fatalf("degraded health: %d %v", code, out)
	}

	// Healed, with new data: the refresh lands and the server serves
	// what a server started over the healed sources serves.
	healed := workload.SplitStore(workload.BrochureStore(10, 2, 9, 11), 2)[1]
	flaky.SetErr(nil)
	flaky.SetStore(healed)
	resp = refresh("src2")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healed refresh status %d", resp.StatusCode)
	}
	_, fresh := newTestServer(t, Config{
		Prog:    prog,
		Sources: []source.Source{source.Static("src1", parts[0]), source.Static("src2", healed)},
	})
	want := askAll(fresh.URL, "fresh server")
	if got := askAll(ts.URL, "healed"); !bytes.Equal(got, want) || bytes.Equal(got, warm) {
		t.Fatalf("healed answers\n got %s\nwant %s\nwarm %s", got, want, warm)
	}
	if code, out := health(); code != 200 || out["status"] != "ok" {
		t.Fatalf("healed health: %d %v", code, out)
	}

	// Unknown source name is a 404 with a stable code.
	resp = refresh("nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown source: status %d, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "unknown_source" {
		t.Fatalf("code %q, want unknown_source", e.Code)
	}
}

// Hot reload over HTTP, racing 1, 4 and 8 live askers: every response
// is entirely one program edition (one tag), the old or the new —
// never a mix.
func TestReloadRaceOverHTTP(t *testing.T) {
	editions := []string{
		versionedSelective("v1", "v1"),
		versionedSelective("v2", "v2"),
	}
	for _, par := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			_, ts := newTestServer(t, Config{
				Prog:   yatl.MustParse(editions[0]),
				Inputs: workload.BrochureStore(6, 2, 5, 11),
			})
			const asksPerWorker = 25
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < par; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < asksPerWorker; i++ {
						resp, out := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern})
						if resp.StatusCode != 200 {
							t.Errorf("ask status %d", resp.StatusCode)
							return
						}
						tags := map[string]bool{}
						for _, a := range out.Answers {
							tags[a.Binding["TAG"]] = true
						}
						if len(tags) != 1 {
							t.Errorf("mixed-generation response: %v", tags)
							return
						}
					}
				}()
			}
			go func() {
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					resp, err := http.Post(ts.URL+"/admin/reload", "text/plain",
						strings.NewReader(editions[i%2]))
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			wg.Wait()
			close(stop)
		})
	}
}

func TestReloadRejectsBadPrograms(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/admin/reload", "text/plain", strings.NewReader("program broken\nrule {"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "parse_error" {
		t.Fatalf("code %q, want parse_error", e.Code)
	}
	// An empty body parses, but swapping in a zero-rule program would
	// wipe the served target; it is refused too.
	resp, err = http.Post(ts.URL+"/admin/reload", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty reload status %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "bad_request" {
		t.Fatalf("empty reload code %q, want bad_request", e.Code)
	}
	// Two rules with one name would be one rule to every by-name
	// lookup; the reload is refused.
	_, before := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern})
	dup := "program dup\nrule R {\n  head F(X) = a\n  from X = b\n}\nrule R {\n  head G(X) = a\n  from X = c\n}\n"
	resp, err = http.Post(ts.URL+"/admin/reload", "text/plain", strings.NewReader(dup))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate-rule reload status %d, want 422", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "duplicate_rule" || !strings.Contains(e.Message, "named R") {
		t.Fatalf("duplicate-rule reload error %+v, want duplicate_rule naming R", e)
	}
	// The server still serves the original program, at its generation.
	if got := s.progName(); got != "selective" {
		t.Fatalf("program swapped to %q on a failed reload", got)
	}
	resp, after := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern})
	if resp.StatusCode != 200 {
		t.Fatalf("ask after failed reload: %d", resp.StatusCode)
	}
	if after.Generation != before.Generation || after.Count != before.Count || after.Count == 0 {
		t.Fatalf("after failed reloads: generation %d, %d answers; before: %d, %d",
			after.Generation, after.Count, before.Generation, before.Count)
	}
}

// Graceful shutdown: cancelling the serve context drains in-flight
// asks (the slow ask completes with its answer, nothing is dropped)
// and leaks no goroutines — the same leak idiom the flaky-source soak
// pins.
func TestGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	prog := yatl.MustParse(versionedSelective("v1"))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	slow := source.NewFault("slow", inputs, source.Step{Latency: 150 * time.Millisecond}).Loop(true)
	s, err := New(Config{Prog: prog, Sources: []source.Source{slow},
		DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Launch the slow in-flight ask, then pull the plug mid-flight.
	askDone := make(chan error, 1)
	go func() {
		resp, out := postAsk(t, base, wire.AskRequest{Pattern: tagPattern})
		if resp.StatusCode != 200 {
			askDone <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		if out.Count == 0 {
			askDone <- errors.New("drained ask lost its answers")
			return
		}
		askDone <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let the ask reach the slow fetch
	cancel()

	if err := <-askDone; err != nil {
		t.Fatalf("in-flight ask: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAskNULFunctor: /ask takes functor names as they come, and one
// holding a NUL names no functor. Asking for it must not poison what a
// later legitimate two-functor ask reads: that ask's answers equal a
// full-mode mediator's.
func TestAskNULFunctor(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	_, ts := newTestServer(t, Config{Prog: prog, Inputs: inputs})
	const pat = `view < -> name -> N, -> city -> C, -> zip -> Z >`
	resp, data := rawAsk(t, ts.URL, "", wire.AskRequest{Pattern: pat, Functors: []string{"Pview1\x00Pview2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("NUL functor ask: status %d: %s", resp.StatusCode, data)
	}
	want, err := mediator.New(prog, inputs).Ask(pat, "Pview1", "Pview2")
	if err != nil || len(want) == 0 {
		t.Fatalf("vacuous: full-mode oracle answered %d (%v)", len(want), err)
	}
	resp, data = rawAsk(t, ts.URL, "", wire.AskRequest{Pattern: pat, Functors: []string{"Pview1", "Pview2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("two-functor ask: status %d: %s", resp.StatusCode, data)
	}
	_, got, err := wire.DecodeAskResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("two-functor ask answered %d, full mode %d", len(got), len(want))
	}
	for i := range got {
		if got[i].MergeKey() != want[i].MergeKey() {
			t.Errorf("answer %d = %s, full mode %s", i, got[i].MergeKey(), want[i].MergeKey())
		}
	}
}
