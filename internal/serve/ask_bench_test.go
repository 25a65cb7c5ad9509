package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// warmPattern is serve_warm's ask: a whole view of the selective
// program, 30 suppliers and three bindings each over warmServer's store.
const warmPattern = `view < -> name -> N, -> city -> C, -> zip -> Z >`

// warmServer serves serve_warm's program and store, and returns the
// body of its ask of Pview1.
func warmServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	s, err := New(Config{Prog: yatl.MustParse(workload.SelectiveProgram(2)), Inputs: workload.BrochureStore(120, 3, 30, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}})
	if err != nil {
		tb.Fatal(err)
	}
	return s, body
}

// fillAskMemo asks 512 patterns of Pview1 other than warmPattern, so
// the view's ask memo has no room left for it.
func fillAskMemo(tb testing.TB, med mediator.Asker) {
	tb.Helper()
	for i := 0; i < 512; i++ {
		if _, err := med.Ask(fmt.Sprintf(`view < -> name -> N%d, -> city -> C, -> zip -> Z >`, i), "Pview1"); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkAsk is the /ask handler's cost on serve_warm's reply through
// Server.Handler(), request parse and reply write included:
//
//	memo_hit:       an ask whose plain reply the ask memo holds
//	memo_hit_keyed: the same ask with ?keys=1
//	past_cap:       an ask the memo has no room for: a demand hit,
//	                matched and rendered afresh every time
func BenchmarkAsk(b *testing.B) {
	for _, c := range []struct {
		name, query string
		pastCap     bool
	}{
		{"memo_hit", "", false},
		{"memo_hit_keyed", "?keys=1", false},
		{"past_cap", "", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, body := warmServer(b)
			med := s.pool[0]
			if c.pastCap {
				fillAskMemo(b, med)
			}
			h := s.Handler()
			ask := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ask"+c.query, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			ask()
			before := med.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask()
			}
			b.StopTimer()
			after := med.Stats()
			if memo := after.MemoHits - before.MemoHits; c.pastCap == (memo != 0) || after.CacheMisses != before.CacheMisses {
				b.Fatalf("%d memo hits and %d misses in %d asks", memo, after.CacheMisses-before.CacheMisses, b.N)
			}
		})
	}
}

// BenchmarkFederatedAsk is a federation parent's /ask in
// serve_federated's shape: one child server per shard of
// SelectiveProgram(8) over BrochureStore(120, 3, 30, 1), each behind
// httptest and a shard client, and the parent's handler asked the whole
// of two adjacent views, so that every ask scatters to both children
// and merges their 30-answer replies. The children's memo hits and the
// loopback round trips are in the cost; the bench's traced run cannot
// show the parent's part of it, which takes AskReply.
func BenchmarkFederatedAsk(b *testing.B) {
	prog := yatl.MustParse(workload.SelectiveProgram(8))
	store := workload.BrochureStore(120, 3, 30, 1)
	var children []federate.Child
	for _, plan := range federate.PlanShards(prog, 2) {
		child, err := New(Config{Prog: plan.Prog, Inputs: store})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(child.Handler())
		b.Cleanup(ts.Close)
		c := federate.NewClient(ts.URL, nil)
		b.Cleanup(c.Close)
		children = append(children, federate.Child{Asker: c})
	}
	fed, err := federate.New(federate.Config{Children: children})
	if err != nil {
		b.Fatal(err)
	}
	parent, err := New(Config{Askers: []mediator.Asker{fed}, Prog: prog})
	if err != nil {
		b.Fatal(err)
	}
	h := parent.Handler()
	var bodies [][]byte
	for k := 1; k <= 8; k++ {
		body, err := json.Marshal(wire.AskRequest{Pattern: warmPattern,
			Functors: []string{fmt.Sprintf("Pview%d", k), fmt.Sprintf("Pview%d", k%8+1)}})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	ask := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ask", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		ask(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(bodies[i%len(bodies)])
	}
}

// TestMemoHitAskAllocs bounds what a memo-hit /ask allocates in the
// handler: the request's body, its pattern and functors and its query,
// and the reply's headers — not the reply, which the memo holds
// rendered. A memo that held the answers, rendered on every hit, came
// to 17; json.Unmarshal of the request cost 7 more than
// wire.DecodeAskRequest.
func TestMemoHitAskAllocs(t *testing.T) {
	s, body := warmServer(t)
	h := s.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/ask", rd)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // memoizes the reply
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	})
	ceiling := 9.0
	if raceEnabled {
		ceiling = 11 // a dropped reply buffer costs three to replace
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per memo-hit ask, want <= %v", allocs, ceiling)
	}
	if st := s.pool[0].Stats(); st.MemoHits < 200 {
		t.Fatalf("vacuous: %d memo hits", st.MemoHits)
	}
}
