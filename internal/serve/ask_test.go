package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// checkAskFraming asserts what every ask reply promises beyond its
// JSON: one compact line, an exact Content-Length, the JSON type.
func checkAskFraming(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q, want application/json", got)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q, body is %d bytes", got, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %v, want a sized body", resp.TransferEncoding)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatalf("reply is not JSON: %v", err)
	}
	if string(body) != compact.String()+"\n" {
		t.Errorf("reply is not one compact line:\n%s", body)
	}
}

// TestAskReplyGoldens pins the ask reply against the previous
// release's: the goldens are the indented /ask and /ask?keys=1 replies
// of the selective server, captured before the append
// encoder existed, and the served bytes must be exactly their
// json.Compact plus the newline — "compact on the wire" is the only
// protocol change.
func TestAskReplyGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}}
	for _, c := range []struct{ query, golden string }{
		{"", "ask_indented.golden.json"},
		{"?keys=1", "ask_keyed_indented.golden.json"},
	} {
		golden, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, golden); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		// Twice: the cold ask and its memo hit reply identically.
		for i := 0; i < 2; i++ {
			resp, got := rawAsk(t, ts.URL, c.query, req)
			checkAskFraming(t, resp, got)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("/ask%s drifted from compact(%s):\n got %s\nwant %s", c.query, c.golden, got, want.Bytes())
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing; fail makes
// Write fail the way a vanished client does.
type discardWriter struct {
	h    http.Header
	fail bool
	n    int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.fail {
		return 0, errors.New("write: broken pipe")
	}
	d.n += len(p)
	return len(p), nil
}

// warmViewAnswers is one serve_warm reply's worth of answers: a whole
// view of the benchmark's selective program (30 suppliers, three
// bindings each).
func warmViewAnswers(t *testing.T) []mediator.Answer {
	t.Helper()
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	med := mediator.New(prog, workload.BrochureStore(120, 3, 30, 1), mediator.WithDemandDriven(true))
	answers, err := med.Ask(`view < -> name -> N, -> city -> C, -> zip -> Z >`, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 30 {
		t.Fatalf("%d answers, want the benchmark's 30", len(answers))
	}
	return answers
}

// writeAsk sends answers as the handler sends an asker's answers: the
// reply rendered into a pooled buffer (askReply's render), sent, and the
// buffer put back.
func writeAsk(s *Server, w http.ResponseWriter, answers []mediator.Answer, keyed bool) {
	a := askBufs.Get().(*askBuf)
	a.keyed = keyed
	s.sendAsk(w, a.render(1, answers))
	putAskBuf(a)
}

// TestAskEncodeAllocs bounds the handler's encode step. The encoder
// that preceded it (a map and a display string per binding, then an
// indenting json.Encoder) spent 555 allocations on this reply.
func TestAskEncodeAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	answers := warmViewAnswers(t)
	w := &discardWriter{h: http.Header{}}
	for _, keyed := range []bool{false, true} {
		allocs := testing.AllocsPerRun(200, func() { writeAsk(s, w, answers, keyed) })
		if allocs > 8 {
			t.Errorf("keyed=%v: %v allocations per 30-answer reply, want <= 8", keyed, allocs)
		}
	}
	if w.n == 0 {
		t.Fatal("nothing was written")
	}
}

// TestAskCountsAfterTheWrite: an ask is served once its reply is
// written and failed when the client went away mid-write.
func TestAskCountsAfterTheWrite(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	answers := warmViewAnswers(t)
	writeAsk(s, &discardWriter{h: http.Header{}}, answers, false)
	if served, failed := s.served.Load(), s.failed.Load(); served != 1 || failed != 0 {
		t.Fatalf("after a good write: served %d failed %d, want 1 0", served, failed)
	}
	writeAsk(s, &discardWriter{h: http.Header{}, fail: true}, answers, false)
	if served, failed := s.served.Load(), s.failed.Load(); served != 1 || failed != 1 {
		t.Fatalf("after a broken write: served %d failed %d, want 1 1", served, failed)
	}
}

// TestAskBufferPoolIsBounded: a reply that outgrew maxPooledAskBuf
// does not go back to the pool. Every buffer the pool can hand out
// afterwards — and with nothing else putting, the oversized one would
// be first — stays under the bound.
func TestAskBufferPoolIsBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	huge := []mediator.Answer{{Name: tree.SkolemName("Pbig", tree.String(strings.Repeat("x", 2*maxPooledAskBuf)))}}
	w := &discardWriter{h: http.Header{}}
	writeAsk(s, w, huge, false)
	if w.n < 2*maxPooledAskBuf {
		t.Fatalf("huge reply was %d bytes", w.n)
	}
	for i := 0; i < 64; i++ {
		if a := askBufs.Get().(*askBuf); cap(a.b) > maxPooledAskBuf {
			t.Fatalf("pool handed out a %d-byte buffer, bound is %d", cap(a.b), maxPooledAskBuf)
		}
	}
}

// TestServeDropsStalledConnections: a client that opens a connection
// and stalls half way through its request line is disconnected after
// readHeaderTimeout instead of holding a goroutine for the life of the
// process, while the server keeps answering everyone else.
func TestServeDropsStalledConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out readHeaderTimeout")
	}
	t.Parallel()
	s, err := New(Config{Prog: yatl.MustParse(versionedSelective("v1")), Inputs: workload.BrochureStore(6, 2, 5, 11)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /as")); err != nil {
		t.Fatal(err)
	}
	// A healthy request beside the stalled one is unaffected.
	if resp, _ := postAsk(t, "http://"+ln.Addr().String(), wire.AskRequest{Pattern: tagPattern}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ask beside a stalled connection: status %d", resp.StatusCode)
	}
	// The server hangs up (any reply it sends first is beside the
	// point); without the timeout this read runs into its deadline.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.Copy(io.Discard, conn)
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("stalled connection still open after %s", time.Since(start).Round(time.Millisecond))
	}
	if waited := time.Since(start); waited < readHeaderTimeout-time.Second {
		t.Errorf("connection dropped after %s, before readHeaderTimeout (%s)", waited, readHeaderTimeout)
	}
}

// FuzzAskRequest sends hostile /ask bodies through the handler, plain,
// keyed and under EXPLAIN. Whatever arrives, the reply is a 200 whose
// document holds together or a 4xx carrying the typed wire error —
// never a panic (the recorder lets one reach the fuzzer) and never a
// 5xx: nothing a client can put in a body is the server's fault.
func FuzzAskRequest(f *testing.F) {
	s, err := New(Config{Prog: yatl.MustParse(versionedSelective("v1", "v2")), Inputs: workload.BrochureStore(6, 2, 5, 11)})
	if err != nil {
		f.Fatal(err)
	}
	handler := s.Handler()
	for i, body := range []string{
		`{"pattern":"X"}`,
		`{"pattern":"` + tagPattern + `","functors":["Pview1"]}`,
		`{"pattern":"view < -> tag -> \"v2\", -> name -> N >","functors":["Pview2","Pview2"]}`,
		`{"pattern":"X","functors":["Pnope"]}`,
		`{"pattern":"X","functors":"Pview1"}`,
		`{"pattern":"X","functors":[null,""]}`,
		`{"pattern":"< unclosed"}`,
		`{"pattern":"view < -*> X, -*> Y, -> Z -> Z >"}`,
		`{"pattern":"\"ends on a backslash\\"}`,
		`{"pattern":"X : Y & ^Z"}`,
		`{"pattern":5}`, `{"pattern":null}`, `{"Pattern":"X","PATTERN":"Y"}`, `{}`, `null`, `[]`, ``, `{"pattern":"X"} trailing`,
		"{\"pattern\":\"\xff\xfe\"}", `{"pattern":"` + strings.Repeat("a < ", 2000) + `"}`,
		strings.Repeat("[", 20000),
	} {
		f.Add([]byte(body), uint8(i))
	}
	f.Fuzz(func(t *testing.T, body []byte, query uint8) {
		q := [...]string{"", "?keys=1", "?explain=1", "?explain=1&keys=1&timing=1"}[query%4]
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ask"+q, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			var out wire.AskResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Count != len(out.Answers) || out.Generation != 1 {
				t.Fatalf("%q%s: 200 with %q (%v)", body, q, rec.Body, err)
			}
		case rec.Code/100 == 4:
			var out wire.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error.Code == "" || out.Error.Message == "" {
				t.Fatalf("%q%s: %d with %q (%v), want the typed error envelope", body, q, rec.Code, rec.Body, err)
			}
		default:
			t.Fatalf("%q%s: status %d: %s", body, q, rec.Code, rec.Body)
		}
	})
}
