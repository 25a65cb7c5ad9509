package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// askKeyCase is one memo key of the served mediator: a pattern text and
// a functor restriction.
type askKeyCase struct {
	pattern  string
	functors []string
}

// serveAsk sends one ask through the handler, plain or keyed, and
// returns the reply's body.
func serveAsk(h http.Handler, k askKeyCase, keyed bool) []byte {
	body, _ := json.Marshal(wire.AskRequest{Pattern: k.pattern, Functors: k.functors})
	q := ""
	if keyed {
		q = "?keys=1"
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ask"+q, bytes.NewReader(body)))
	return rec.Body.Bytes()
}

// referenceReply is what the handler rendered from AskContext's answers
// before the ask memo kept replies: the reference every /ask reply of a
// mediator must equal byte for byte.
func referenceReply(t testing.TB, twin *mediator.Mediator, k askKeyCase, keyed bool) []byte {
	t.Helper()
	answers, err := twin.AskContext(context.Background(), k.pattern, k.functors...)
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendAskResponse(nil, twin.Generation(), answers, keyed)
}

// Every /ask reply is byte for byte the reply rendered from AskContext's
// answers, over a twin mediator driven through the same sequence: memo
// hits and misses, plain and keyed, one key asked both ways, keys past
// the ask memo's cap, between source refreshes, reloads, invalidations
// and restores.
func TestAskReplyMatchesReference(t *testing.T) {
	progs := []*yatl.Program{yatl.MustParse(versionedSelective("v1", "v1")), yatl.MustParse(versionedSelective("v1", "v2"))}
	stores := []*tree.Store{workload.BrochureStore(6, 2, 5, 11), workload.BrochureStore(10, 2, 9, 11)}
	servedSrc, twinSrc := source.NewFault("src", stores[0]), source.NewFault("src", stores[0])
	s, err := New(Config{Prog: progs[0], Sources: []source.Source{servedSrc}})
	if err != nil {
		t.Fatal(err)
	}
	med := s.pool[0].(*mediator.Mediator)
	twin := mediator.New(progs[0], nil, mediator.WithDemandDriven(true), mediator.WithSources(twinSrc))
	h := s.Handler()

	keys := []askKeyCase{
		{tagPattern, []string{"Pview1"}},
		{tagPattern, []string{"Pview2"}},
		{tagPattern, []string{"Pview2", "Pview1"}},
		{tagPattern, nil},
		{`view < -> tag -> "v2", -> name -> N, -> city -> C >`, nil},
		{`X`, []string{"Pview1"}},
	}
	// A flood of distinct keys fills the memo; its last ones are past the
	// cap, so every ask of them renders afresh.
	var flood []askKeyCase
	for i := 0; i < 520; i++ {
		flood = append(flood, askKeyCase{fmt.Sprintf(`view < -> tag -> T%d, -> name -> N, -> city -> C >`, i), []string{"Pview1"}})
	}
	pastCap := flood[len(flood)-8:]

	asks := 0
	ask := func(step int, k askKeyCase, keyed bool) {
		t.Helper()
		asks++
		got := serveAsk(h, k, keyed)
		if want := referenceReply(t, twin, k, keyed); !bytes.Equal(got, want) {
			t.Fatalf("step %d, %q %v keyed=%v:\n got %s\nwant %s", step, k.pattern, k.functors, keyed, got, want)
		}
	}
	both := func(do func(m *mediator.Mediator, src *source.Fault)) {
		do(med, servedSrc)
		do(twin, twinSrc)
	}
	store, prog := 0, 0
	admin := []func(){
		func() {
			store = 1 - store
			both(func(m *mediator.Mediator, src *source.Fault) {
				src.SetStore(stores[store])
				if err := m.RefreshSource(context.Background(), "src"); err != nil {
					t.Fatal(err)
				}
			})
		},
		func() {
			prog = 1 - prog
			both(func(m *mediator.Mediator, _ *source.Fault) { m.Reload(progs[prog]) })
		},
		func() { both(func(m *mediator.Mediator, _ *source.Fault) { m.Invalidate() }) },
		func() {
			both(func(m *mediator.Mediator, _ *source.Fault) {
				snap, err := m.Snapshot()
				if err == nil {
					err = m.Restore(snap)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		},
	}

	rng := rand.New(rand.NewSource(35))
	for step := 0; step < 600; step++ {
		switch {
		case step == 150 || step == 400:
			for _, k := range flood {
				ask(step, k, rng.Intn(2) == 0)
			}
		case rng.Intn(8) == 0:
			admin[rng.Intn(len(admin))]()
		case rng.Intn(4) == 0:
			ask(step, pastCap[rng.Intn(len(pastCap))], rng.Intn(2) == 0)
		default:
			ask(step, keys[rng.Intn(len(keys))], rng.Intn(2) == 0)
		}
	}
	st := med.Stats()
	if st.Asks != int64(asks) || st.CacheHits+st.CacheMisses != st.Asks || st.MemoHits == 0 || st.MemoHits > st.CacheHits {
		t.Errorf("%d asks served: asks/hits/misses/memo hits = %d/%d/%d/%d", asks, st.Asks, st.CacheHits, st.CacheMisses, st.MemoHits)
	}
}

// Memo hits and fills of one key, in every form, from several askers at
// once while a refresh loops beside them: every /ask reply is the
// reference reply over the store before or after a refresh, every Go
// caller's answers are one of the two worlds' answers. Run it under
// -race: the memo entries are filled without a lock.
func TestAskReplyAcrossRefresh(t *testing.T) {
	const askers, asks = 4, 300
	prog := yatl.MustParse(versionedSelective("v1", "v1"))
	stores := []*tree.Store{workload.BrochureStore(6, 2, 5, 11), workload.BrochureStore(10, 2, 9, 11)}
	k := askKeyCase{tagPattern, []string{"Pview1"}}
	var replies [2][2][]byte // [world][keyed]
	var answers [2]string
	for w, store := range stores {
		twin := mediator.New(prog, store, mediator.WithDemandDriven(true))
		replies[w][0] = referenceReply(t, twin, k, false)
		replies[w][1] = referenceReply(t, twin, k, true)
		got, err := twin.Ask(k.pattern, k.functors...)
		if err != nil {
			t.Fatal(err)
		}
		answers[w] = string(wire.AppendAskResponse(nil, 1, got, true))
	}

	fault := source.NewFault("src", stores[0])
	s, err := New(Config{Prog: prog, Sources: []source.Source{fault}})
	if err != nil {
		t.Fatal(err)
	}
	med := s.pool[0].(*mediator.Mediator)
	h := s.Handler()
	serveAsk(h, k, false) // the one cold fill

	stop := make(chan struct{})
	refreshed := make(chan int)
	go func() {
		n := 0
		defer func() { refreshed <- n }()
		for {
			for _, store := range []*tree.Store{stores[1], stores[0]} {
				select {
				case <-stop:
					return
				default:
				}
				fault.SetStore(store)
				if err := med.RefreshSource(context.Background(), "src"); err != nil {
					t.Errorf("refresh: %v", err)
					return
				}
				n++
			}
		}
	}()
	var seen [2][3]atomic.Int64 // asks per world and form
	// Past its asks, an asker goes on until every world has been seen in
	// every form: on a loaded machine the refresh loop may not have
	// turned the world over once by then.
	deadline := time.Now().Add(10 * time.Second)
	allSeen := func() bool {
		for w := range seen {
			for form := range seen[w] {
				if seen[w][form].Load() == 0 {
					return false
				}
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < asks || !allSeen() && time.Now().Before(deadline); i++ {
				form := (a + i) % 3
				var got []byte
				if form == 2 {
					as, err := med.AskContext(context.Background(), k.pattern, k.functors...)
					if err != nil {
						t.Errorf("ask: %v", err)
						return
					}
					got = wire.AppendAskResponse(nil, 1, as, true)
				} else {
					got = serveAsk(h, k, form == 1)
				}
				world := -1
				for w := range stores {
					if form == 2 && string(got) == answers[w] || form < 2 && bytes.Equal(got, replies[w][form]) {
						world = w
					}
				}
				if world < 0 {
					t.Errorf("asker %d, ask %d, form %d: a reply that is neither world's:\n%s", a, i, form, got)
					return
				}
				seen[world][form].Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	n := <-refreshed
	for w := range stores {
		for form := 0; form < 3; form++ {
			if seen[w][form].Load() == 0 {
				t.Errorf("vacuous: %d refreshes ran, and no form-%d ask saw world %d", n, form, w)
			}
		}
	}
}
