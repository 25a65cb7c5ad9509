package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

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
// serve_federated's shape (federatedAsks): every ask scatters to both
// children and is answered from the parent's reply memo. Under leased
// the children grant read leases, and an ask under them asks no child;
// under conditional they grant none, and each child answers every ask
// with a 304. The loopback round trips are in the cost; the bench's
// traced run cannot show the parent's part of it, which takes
// AskReply. child-requests/op is both children's /ask requests per ask.
func BenchmarkFederatedAsk(b *testing.B) {
	for _, c := range []struct {
		name   string
		leases bool
	}{{"leased", true}, {"conditional", false}} {
		b.Run(c.name, func(b *testing.B) {
			counts := &childCounts{leases: c.leases}
			ask, _, _ := federatedAsks(b, counts)
			before := counts.snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ask(b, i)
			}
			b.StopTimer()
			after := counts.snapshot()
			b.ReportMetric(float64(after[0]+after[1]-before[0]-before[1])/float64(b.N), "child-requests/op")
		})
	}
}

// BenchmarkFederatedRefresh is the write side of the read leases, and
// the parent's side of a refreshed child: one goroutine asks a
// memoFederation's parent in a closed loop while the second child's
// source is refreshed once per period, open loop, as serve_churn
// refreshes its server. One op is one period. refresh-ms-p50 and -max
// are the refreshes' latency, late-ms-p50 how long after its tick a
// refresh began (a refresh that lags pushes the next one late), waits/op
// the share of refreshes that waited out a lease, leased-share the share
// of asks replayed under a lease, ask-us-p50 the parent's ask latency
// and not-modified/op the children's 304s per period. Under conditional
// the children grant no lease, as before leases. Each refresh moves the
// child to the other world, but under same it rewrites the world it
// serves: the child's replies stay as they were while its epoch moves.
func BenchmarkFederatedRefresh(b *testing.B) {
	for _, period := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond} {
		for _, c := range []struct {
			name         string
			leases, same bool
		}{{"leased", true, false}, {"conditional", false, false}, {"leased/same", true, true}, {"conditional/same", false, true}} {
			b.Run(fmt.Sprintf("period=%v/%s", period, c.name), func(b *testing.B) {
				m := newMemoFederation(b, c.leases)
				req := memoAsks[1]
				m.direct(b, req, false)
				m.direct(b, req, false)
				stop, stopped := make(chan struct{}), make(chan struct{})
				var asks []float64 // µs, written by the asking goroutine until stopped
				world := func(i int) int {
					if c.same {
						return 0
					}
					return i % 2
				}
				m.moveTo(b, world(1)) // from here on every tick follows a refresh
				stats, waits := m.fed.Stats(), m.secondSrv.leaseWaits.Load()
				go func() {
					defer close(stopped)
					for {
						select {
						case <-stop:
							return
						default:
						}
						start := time.Now()
						m.direct(b, req, false)
						asks = append(asks, float64(time.Since(start))/float64(time.Microsecond))
					}
				}()
				took, late := make([]float64, b.N), make([]float64, b.N)
				b.ResetTimer()
				tick := time.Now()
				for i := 0; i < b.N; i++ {
					tick = tick.Add(period)
					time.Sleep(time.Until(tick))
					start := time.Now()
					m.moveTo(b, world(i))
					took[i], late[i] = ms(time.Since(start)), ms(start.Sub(tick))
				}
				b.StopTimer()
				close(stop)
				<-stopped
				slices.Sort(took)
				slices.Sort(late)
				b.ReportMetric(took[b.N/2], "refresh-ms-p50")
				b.ReportMetric(took[b.N-1], "refresh-ms-max")
				b.ReportMetric(late[b.N/2], "late-ms-p50")
				b.ReportMetric(float64(m.secondSrv.leaseWaits.Load()-waits)/float64(b.N), "waits/op")
				after := m.fed.Stats()
				b.ReportMetric(float64(after.NotModified-stats.NotModified)/float64(b.N), "not-modified/op")
				if n := len(asks); n > 0 {
					slices.Sort(asks)
					b.ReportMetric(asks[n/2], "ask-us-p50")
					b.ReportMetric(float64(after.LeasedReplays-stats.LeasedReplays)/float64(n), "leased-share")
				}
			})
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// federatedAsks builds serve_federated's topology: one child server per
// shard of SelectiveProgram(8) over BrochureStore(120, 3, 30, 1), each
// behind httptest and counts' wrapper, and a shard client, and a parent
// handler over their federation fed. ask(tb, i) sends the parent the
// i-th of eight asks, each the whole of two adjacent views, so that it
// merges two 30-answer replies; each has been asked twice, so the memos
// hold it and the parent's has answered it once, which makes the next
// ask conditional, or leased when counts lets the children grant
// leases. memoized says whether the federation's reply memo answers
// every one of them.
func federatedAsks(tb testing.TB, counts *childCounts) (ask func(tb testing.TB, i int), memoized func() bool, fed *federate.Federation) {
	prog := yatl.MustParse(workload.SelectiveProgram(8))
	store := workload.BrochureStore(120, 3, 30, 1)
	var children []federate.Child
	for _, plan := range federate.PlanShards(prog, 2) {
		child, err := New(Config{Prog: plan.Prog, Inputs: store})
		if err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(counts.wrap(child.Handler()))
		tb.Cleanup(ts.Close)
		c := federate.NewClient(ts.URL, nil)
		tb.Cleanup(c.Close)
		children = append(children, federate.Child{Asker: c})
	}
	var err error
	fed, err = federate.New(federate.Config{Children: children})
	if err != nil {
		tb.Fatal(err)
	}
	parent, err := New(Config{Askers: []mediator.Asker{fed}, Prog: prog})
	if err != nil {
		tb.Fatal(err)
	}
	h := parent.Handler()
	var (
		reqs   []wire.AskRequest
		bodies [][]byte
	)
	for k := 1; k <= 8; k++ {
		req := wire.AskRequest{Pattern: warmPattern,
			Functors: []string{fmt.Sprintf("Pview%d", k), fmt.Sprintf("Pview%d", k%8+1)}}
		reqs, bodies = append(reqs, req), append(bodies, wire.AppendAskRequest(nil, req))
	}
	ask = func(tb testing.TB, i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ask", bytes.NewReader(bodies[i%len(bodies)])))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 2*len(reqs); i++ {
		ask(tb, i)
	}
	memoized = func() bool {
		for _, req := range reqs {
			rendered := false
			_, err := fed.AskReply(context.Background(), req.Pattern, req.Functors, false,
				func(generation int64, answers []mediator.Answer) []byte {
					rendered = true
					return wire.AppendAskResponse(nil, generation, answers, false)
				})
			if err != nil || rendered {
				return false
			}
		}
		return true
	}
	return ask, memoized, fed
}

// TestFederatedAskBytes bounds what a repeated federated /ask allocates,
// children and loopback included. Relayed, merged and rendered afresh
// on every ask it came to 91.8 KB; from the parent's reply memo, with
// each child sending its whole reply, 32.7 KB; with each child
// answering 304, 31.9 KB. And it pins the 304s: on these asks the
// children write no reply body at all.
func TestFederatedAskBytes(t *testing.T) {
	var counts childCounts
	ask, memoized, _ := federatedAsks(t, &counts)
	before := counts.snapshot()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ask(b, i)
		}
	})
	after := counts.snapshot()
	if !memoized() {
		t.Fatal("vacuous: the federation's reply memo does not answer the benchmark's asks")
	}
	conditional, unconditional, notModified, bodyBytes := after[0]-before[0], after[1]-before[1], after[2]-before[2], after[3]-before[3]
	if conditional == 0 || unconditional != 0 || notModified != conditional || bodyBytes != 0 {
		t.Errorf("over %d repeated asks the children were asked %d times conditionally and %d times not, answered %d 304s"+
			" and wrote %d reply-body bytes; want every ask a 304 and no body", r.N, conditional, unconditional, notModified, bodyBytes)
	}
	ceiling := int64(40 << 10)
	if raceEnabled {
		ceiling = 120 << 10 // its sync.Pool drops reply buffers
	}
	if got := r.AllocedBytesPerOp(); r.N == 0 || got > ceiling {
		t.Errorf("%d bytes allocated per repeated federated ask over %d asks, want <= %d", got, r.N, ceiling)
	}
	t.Logf("%d bytes, %d allocations per ask over %d asks", r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
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
