package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestMemoHitAskAllocs bounds what a memo-hit /ask allocates in the
// handler: the request's body, its JSON and its query, and the reply's
// headers — not the reply, which the memo holds rendered. A memo that
// held the answers, rendered on every hit, came to 17.
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
	ceiling := 16.0
	if raceEnabled {
		ceiling = 18 // a dropped reply buffer costs three to replace
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per memo-hit ask, want <= %v", allocs, ceiling)
	}
	if st := s.pool[0].Stats(); st.MemoHits < 200 {
		t.Fatalf("vacuous: %d memo hits", st.MemoHits)
	}
}
