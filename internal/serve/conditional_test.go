package serve

import (
	"bytes"
	"context"
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

// shaTag is a reply's SHA-256 digest as an entity tag, which names no
// epoch.
func shaTag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// TestConditionalAsk is the conditional /ask contract on one child
// server, for a reply its ask memo holds and for one it renders afresh
// (the memo is full): every 200 carries the server's write epoch as its
// ETag, and an If-None-Match naming that epoch gets a bodiless 304 that
// echoes the tag and counts as served. Every other one gets the 200 an
// unconditional ask gets, byte for byte: among them the epoch before a
// write that left the reply as it was.
func TestConditionalAsk(t *testing.T) {
	req := wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}}
	for _, pastCap := range []bool{false, true} {
		s, _ := warmServer(t)
		if pastCap {
			fillAskMemo(t, s.pool[0])
		}
		ts := serveURL(t, s.Handler())
		resp, before := rawAsk(t, ts, "", req)
		stale := resp.Header.Get("ETag")
		if err := s.write(context.Background(), func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		for _, query := range []string{"", "?keys=1"} {
			name := map[bool]string{false: "memoized", true: "past the memo's cap"}[pastCap] + " /ask" + query
			resp, want := rawAsk(t, ts, query, req)
			checkAskFraming(t, resp, want)
			tag := resp.Header.Get("ETag")
			epoch, ok := wire.ParseEpoch(strings.Trim(tag, `"`))
			if !ok || tag != `"`+string(wire.AppendEpoch(nil, epoch))+`"` || epoch.Writes != 1 || tag == stale || query == "" && !bytes.Equal(want, before) {
				t.Fatalf("%s: ETag %q after one write that changed nothing, before it %q; want the next epoch, quoted, and the same reply", name, tag, stale)
			}

			served := s.served.Load()
			resp, body := conditionalAsk(t, ts, query, req, tag)
			if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != tag {
				t.Errorf("%s, matching tag: status %d, %d body bytes, ETag %q; want 304, none, %q",
					name, resp.StatusCode, len(body), resp.Header.Get("ETag"), tag)
			}
			if got := s.served.Load() - served; got != 1 {
				t.Errorf("%s: a 304 counted %d served asks, want 1", name, got)
			}

			bare := strings.Trim(tag, `"`)
			otherBoot := `"` + string(wire.AppendEpoch(nil, wire.Epoch{Boot: epoch.Boot + 1, Writes: epoch.Writes})) + `"`
			for _, tags := range [][]string{
				{stale},
				{otherBoot},
				{`"` + string(wire.AppendEpoch(nil, wire.Epoch{})) + `"`},
				{"W/" + tag},
				{stale + ", " + tag},
				{tag + ", " + stale},
				{tag, stale},
				{"*"},
				{bare},
				{`"` + bare + `.0"`},
				{`"` + strings.Replace(bare, ".", "", 1) + `"`},
				{`"` + bare[:len(bare)-1] + `x"`},
				{`" ` + bare + `"`},
				{shaTag(want)},
				{""},
			} {
				resp, body := conditionalAsk(t, ts, query, req, tags...)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) || resp.Header.Get("ETag") != tag {
					t.Errorf("%s, If-None-Match %q: status %d, ETag %q\n got %s\nwant %s", name, tags, resp.StatusCode, resp.Header.Get("ETag"), body, want)
					continue
				}
				checkAskFraming(t, resp, body)
			}
		}
	}
}

// TestConditionalAskNeverHidesAnError: an error reply is sent whole,
// untagged, whatever tag the ask names, the server's current epoch
// included, and ?explain=1 answers with its profile even when the tag
// names the plain reply's epoch.
func TestConditionalAskNeverHidesAnError(t *testing.T) {
	s, _ := warmServer(t)
	ts := serveURL(t, s.Handler())
	req := wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}}
	ok, plain := rawAsk(t, ts, "", req)
	current := ok.Header.Get("ETag")
	bad := wire.AskRequest{Pattern: "view < -> name ->"}
	resp, want := rawAsk(t, ts, "", bad)
	if resp.StatusCode/100 == 2 || current == "" {
		t.Fatalf("vacuous: the malformed ask answered %d, the well-formed one tagged %q", resp.StatusCode, current)
	}
	for _, tag := range []string{current, shaTag(want), shaTag(nil)} {
		got, body := conditionalAsk(t, ts, "", bad, tag)
		if got.StatusCode != resp.StatusCode || !bytes.Equal(body, want) || got.Header.Get("ETag") != "" {
			t.Errorf("error reply under If-None-Match %s: status %d %s, ETag %q; want %d %s, none", tag, got.StatusCode, body, got.Header.Get("ETag"), resp.StatusCode, want)
		}
	}

	resp, body := conditionalAsk(t, ts, "?explain=1", req, current)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"profile":`)) || bytes.Equal(body, plain) {
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
