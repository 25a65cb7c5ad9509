package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"yat/internal/serve/wire"
)

// conditionalAsk POSTs one ask with the given If-None-Match header
// lines and returns the response with its body read.
func conditionalAsk(t *testing.T, base, query string, req wire.AskRequest, tags ...string) (*http.Response, []byte) {
	t.Helper()
	hr, err := http.NewRequest(http.MethodPost, base+"/ask"+query, bytes.NewReader(wire.AppendAskRequest(nil, req)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for _, tag := range tags {
		hr.Header.Add("If-None-Match", tag)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// serveURL serves h on a test server and returns its URL.
func serveURL(t testing.TB, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// etagOf is the entity tag of a reply, as a parent sends it.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return string(wire.AppendETag(nil, &sum))
}

// TestConditionalAsk is the conditional /ask contract on one child
// server, for a reply its ask memo holds and for one it renders afresh
// (the memo is full): an If-None-Match naming the reply gets a bodiless
// 304 that echoes the tag and counts as served; every other one gets
// the 200 an unconditional ask gets, byte for byte.
func TestConditionalAsk(t *testing.T) {
	req := wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}}
	for _, pastCap := range []bool{false, true} {
		s, _ := warmServer(t)
		if pastCap {
			fillAskMemo(t, s.pool[0])
		}
		ts := serveURL(t, s.Handler())
		for _, query := range []string{"", "?keys=1"} {
			name := map[bool]string{false: "memoized", true: "past the memo's cap"}[pastCap] + " /ask" + query
			resp, want := rawAsk(t, ts, query, req)
			checkAskFraming(t, resp, want)
			tag := etagOf(want)

			served := s.served.Load()
			resp, body := conditionalAsk(t, ts, query, req, tag)
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != tag {
				t.Errorf("%s, matching tag: status %d, %d body bytes, ETag %q; want 304, none, %q",
					name, resp.StatusCode, len(body), resp.Header.Get("ETag"), tag)
			}
			if got := s.served.Load() - served; got != 1 {
				t.Errorf("%s: a 304 counted %d served asks, want 1", name, got)
			}

			stale := etagOf(append(bytes.Clone(want), ' '))
			hexSum := strings.Trim(tag, `"`)
			for _, tags := range [][]string{
				{stale},
				{"W/" + tag},
				{stale + ", " + tag},
				{tag + ", " + stale},
				{tag, stale},
				{"*"},
				{hexSum},
				{`"` + hexSum[2:] + `"`},
				{`"` + hexSum + `00"`},
				{`"` + strings.ToUpper(hexSum) + `"`},
				{`"` + strings.Repeat("z", len(hexSum)) + `"`},
				{`"` + hex.EncodeToString(make([]byte, sha256.Size)) + `"`},
				{""},
			} {
				resp, body := conditionalAsk(t, ts, query, req, tags...)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("%s, If-None-Match %q: status %d\n got %s\nwant %s", name, tags, resp.StatusCode, body, want)
					continue
				}
				checkAskFraming(t, resp, body)
			}
		}
	}
}

// TestConditionalAskNeverHidesAnError: an error reply is sent whole
// whatever tag the ask names, its own included, and ?explain=1 answers
// with its profile even when the tag names the plain reply.
func TestConditionalAskNeverHidesAnError(t *testing.T) {
	s, _ := warmServer(t)
	ts := serveURL(t, s.Handler())
	bad := wire.AskRequest{Pattern: "view < -> name ->"}
	resp, want := rawAsk(t, ts, "", bad)
	if resp.StatusCode/100 == 2 {
		t.Fatalf("vacuous: the malformed ask answered %d", resp.StatusCode)
	}
	for _, tag := range []string{etagOf(want), etagOf(nil)} {
		got, body := conditionalAsk(t, ts, "", bad, tag)
		if got.StatusCode != resp.StatusCode || !bytes.Equal(body, want) {
			t.Errorf("error reply under If-None-Match %s: status %d %s, want %d %s", tag, got.StatusCode, body, resp.StatusCode, want)
		}
	}

	req := wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}}
	_, plain := rawAsk(t, ts, "", req)
	resp, body := conditionalAsk(t, ts, "?explain=1", req, etagOf(plain))
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"profile":`)) {
		t.Errorf("?explain=1 under the plain reply's tag: status %d, %d bytes, want 200 with a profile", resp.StatusCode, len(body))
	}
}

// childCounts counts what a child server is asked and what it sends: its
// /ask requests with and without If-None-Match, the 304s, and the reply
// body bytes it writes. Unless leases is set, it strips every ask's
// lease request, so that the child grants none and the parent asks it
// every time, conditionally once the reply memo has replayed.
type childCounts struct {
	conditional, unconditional, notModified, bodyBytes atomic.Int64
	leases                                             bool
}

// wrap counts h's /ask traffic.
func (c *childCounts) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ask" {
			h.ServeHTTP(w, r)
			return
		}
		if !c.leases {
			r.Header.Del(wire.LeaseRequestHeader)
		}
		if len(r.Header["If-None-Match"]) > 0 {
			c.conditional.Add(1)
		} else {
			c.unconditional.Add(1)
		}
		h.ServeHTTP(&countingWriter{ResponseWriter: w, c: c}, r)
	})
}

// snapshot is the counts as (conditional, unconditional, notModified,
// bodyBytes).
func (c *childCounts) snapshot() [4]int64 {
	return [4]int64{c.conditional.Load(), c.unconditional.Load(), c.notModified.Load(), c.bodyBytes.Load()}
}

type countingWriter struct {
	http.ResponseWriter
	c *childCounts
}

func (w *countingWriter) WriteHeader(code int) {
	if code == http.StatusNotModified {
		w.c.notModified.Add(1)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.c.bodyBytes.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}
