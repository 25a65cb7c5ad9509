package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// leasedAsk POSTs an ask to base's /ask with the query, requesting a
// read lease when leased, and returns the status, the body and the
// LeaseHeader granted ("" for none).
func leasedAsk(base, query string, req wire.AskRequest, leased bool) (status int, body []byte, grant string, err error) {
	hreq, err := http.NewRequest(http.MethodPost, base+"/ask"+query, bytes.NewReader(wire.AppendAskRequest(nil, req)))
	if err != nil {
		return 0, nil, "", err
	}
	if leased {
		hreq.Header.Set(wire.LeaseRequestHeader, "1")
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get(wire.LeaseHeader), err
}

// TestLeaseLinearizable races parent asks, through HTTP and straight
// into AskReply, against refreshes that move the second child between
// two worlds, with both children granting read leases: every reply is
// byte for byte one of the single server's two replies, and every ask
// that began after a refresh returned, with no refresh begun before it
// ended, carries the world that refresh moved to. Leased replays, which
// ask no child, must be among the replies. The child that applies its
// writes without waiting out its leases is caught: the parent replays
// the world it left.
func TestLeaseLinearizable(t *testing.T) {
	if diff := leaseRace(t, false); diff != "" {
		t.Error(diff)
	}
	if diff := leaseRace(t, true); diff == "" {
		t.Error("a child that does not wait out its leases went unnoticed")
	}
}

// leaseRace runs TestLeaseLinearizable's race, against the child that
// skips its lease waits when skipWait is set, and describes the first
// reply that was not linearizable ("" when every one was).
func leaseRace(t *testing.T, skipWait bool) string {
	t.Helper()
	const refreshes, askers = 6, 4
	m := newMemoFederation(t, true)
	m.secondSrv.skipLeaseWait = skipWait
	req := memoAsks[1]
	var want [2][2][]byte // [world][keyed]
	for w := range want {
		for k, query := range memoQueries {
			_, want[w][k] = rawAsk(t, m.single[w], query, req)
		}
	}
	for k := range memoQueries {
		m.direct(t, req, k == 1) // memoized, under a lease from each child
	}
	before := m.fed.Stats().LeasedReplays

	// started and done count the refreshes begun and returned; after n
	// have returned the second child serves world n%2. Every other
	// refresh comes after a quiet spell longer than a lease, so the
	// child grants leases again between them and the refresh that ends
	// the spell waits one out; the others come too soon after a write
	// for any lease to have been granted.
	var started, done atomic.Int64
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for n := 1; n <= refreshes; n++ {
			spell := 20 * time.Millisecond
			if n%2 == 1 {
				spell = wire.LeaseTTL + 50*time.Millisecond
			}
			time.Sleep(spell)
			started.Add(1)
			m.moveTo(t, n%2)
			done.Add(1)
		}
	}()
	var (
		mu        sync.Mutex
		diff      string
		fresh     atomic.Int64 // asks begun after a refresh returned, none in flight
		worldSeen [2]atomic.Int64
	)
	fail := func(s string) {
		mu.Lock()
		defer mu.Unlock()
		if diff == "" {
			diff = s
		}
	}
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (a + i) % 2
				from := done.Load()
				var got []byte
				if a%2 == 0 {
					got, _ = m.direct(t, req, k == 1)
				} else {
					status, body, _, err := leasedAsk(m.parent, memoQueries[k], req, false)
					if err != nil || status != http.StatusOK {
						fail(fmt.Sprintf("parent /ask: status %d, %v", status, err))
						return
					}
					got = body
				}
				to := started.Load()
				world := -1
				for w := range want {
					if bytes.Equal(got, want[w][k]) {
						world = w
					}
				}
				switch {
				case world < 0:
					fail(fmt.Sprintf("a reply of neither world:\n got %s\nwant %s\n  or %s", got, want[0][k], want[1][k]))
					return
				case from == to && world != int(from%2):
					fail(fmt.Sprintf("an ask begun after refresh %d returned, and ended before another began, carries world %d", from, world))
				case from == to:
					fresh.Add(1)
				}
				worldSeen[world].Add(1)
			}
		}()
	}
	wg.Wait()
	if diff != "" {
		return diff
	}
	leased, waits := m.fed.Stats().LeasedReplays-before, m.secondSrv.leaseWaits.Load()
	if fresh.Load() == 0 || worldSeen[0].Load() == 0 || worldSeen[1].Load() == 0 || leased == 0 || !skipWait && waits < 2 {
		t.Fatalf("vacuous: %d asks checked against one world, replies per world %d/%d, %d leased replays, %d lease waits",
			fresh.Load(), worldSeen[0].Load(), worldSeen[1].Load(), leased, waits)
	}
	return ""
}

// TestConditionalAskLinearizable races conditional asks straight at a
// child against refreshes that move it between two worlds, with no
// lease requested: each asker sends back the tag of the last tagged
// reply it got, and every reply — a 304 standing for the bytes the
// asker holds — is byte for byte one of the two worlds' and
// linearizable: of a world the child held at some point of the ask, and
// not older than what an ask that ended before it began returned. Each
// refresh holds its write pending a little before and after it applies,
// and the child's mediator holds back one reply at a time that it
// computed before a begun refresh applied, until the refresh returns,
// so that the two unsound children are caught: one that tags replies
// and answers 304 while a write is pending, and one that reads its
// epoch after computing the reply.
func TestConditionalAskLinearizable(t *testing.T) {
	if diff := conditionalRace(t, nil); diff != "" {
		t.Error(diff)
	}
	for name, mutate := range map[string]func(*Server){
		"tags replies while a write is pending": func(s *Server) { s.tagWhilePending = true },
		"reads its epoch after the reply":       func(s *Server) { s.tagAfterReply = true },
	} {
		if conditionalRace(t, mutate) == "" {
			t.Errorf("a child that %s went unnoticed", name)
		}
	}
}

// heldBack is a child's mediator that calls hold with each reply it has
// computed, before it returns it.
type heldBack struct {
	*mediator.Mediator
	hold func()
}

func (h heldBack) AskReply(ctx context.Context, patternSrc string, functors []string, keyed bool,
	render func(int64, []mediator.Answer) []byte) ([]byte, error) {
	body, err := h.Mediator.AskReply(ctx, patternSrc, functors, keyed, render)
	h.hold()
	return body, err
}

// taggedAsk POSTs an ask to base's /ask, conditional on tag unless it
// is empty, and returns the status, the body and the ETag.
func taggedAsk(base string, req wire.AskRequest, tag string) (status int, body []byte, etag string, err error) {
	hreq, err := http.NewRequest(http.MethodPost, base+"/ask", bytes.NewReader(wire.AppendAskRequest(nil, req)))
	if err != nil {
		return 0, nil, "", err
	}
	if tag != "" {
		hreq.Header.Set("If-None-Match", tag)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}

// conditionalRace runs TestConditionalAskLinearizable's race against a
// child that mutate makes unsound (none when nil), and describes the
// first reply that was not linearizable ("" when every one was).
func conditionalRace(t *testing.T, mutate func(*Server)) string {
	t.Helper()
	const refreshes, askers, steer = 8, 4, 3 * time.Millisecond
	prog := yatl.MustParse("program selective\n" + memoRule(1, "brochure") + memoRule(3, "catalogue"))
	req := wire.AskRequest{Pattern: "X", Functors: []string{"Pview3", "Pview1"}}
	var want [2][]byte
	for w := range want {
		_, single := newTestServer(t, Config{Prog: prog, Inputs: memoWorld(w)})
		_, want[w] = rawAsk(t, single.URL, "", req)
	}
	fault := source.NewFault("src", memoWorld(0))
	s, ts := newTestServer(t, Config{Prog: prog, Sources: []source.Source{fault}})
	if mutate != nil {
		mutate(s)
	}

	// started, applied and done count the refreshes begun, whose new
	// world the mediator serves, and returned; after n have been applied
	// the child serves world n%2. One reply at a time that was computed
	// while a refresh was begun and not applied is held back until the
	// refresh returns; the others go at once.
	var started, applied, done atomic.Int64
	var holding atomic.Bool
	med := s.pool[0].(*mediator.Mediator)
	s.pool[0] = heldBack{Mediator: med, hold: func() {
		if n := started.Load(); n > applied.Load() && holding.CompareAndSwap(false, true) {
			for done.Load() < n {
				time.Sleep(50 * time.Microsecond)
			}
			holding.Store(false)
		}
	}}
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for n := 1; n <= refreshes; n++ {
			time.Sleep(10 * time.Millisecond)
			fault.SetStore(memoWorld(n % 2))
			started.Add(1)
			err := s.write(context.Background(), func() error {
				time.Sleep(steer)
				err := med.RefreshSource(context.Background(), "src")
				applied.Add(1)
				time.Sleep(steer)
				return err
			})
			done.Add(1)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var (
		mu      sync.Mutex
		diff    string
		seen    atomic.Int64 // the newest world version an ask that ended returned
		checked atomic.Int64 // 304s whose ask began and ended with no refresh under way
		kinds   [2]atomic.Int64
	)
	fail := func(s string) {
		mu.Lock()
		defer mu.Unlock()
		if diff == "" {
			diff = s
		}
	}
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []byte // the last tagged 200's bytes, sent back as its tag
			var tag string
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor, from := seen.Load(), applied.Load()
				status, body, etag, err := taggedAsk(ts.URL, req, tag)
				to := started.Load()
				switch {
				case err != nil:
					fail(err.Error())
					return
				case status == http.StatusNotModified:
					kinds[1].Add(1)
					body = held
				case status == http.StatusOK:
					kinds[0].Add(1)
					if etag != "" {
						held, tag = body, etag
					}
				default:
					fail(fmt.Sprintf("status %d: %s", status, body))
					return
				}
				world := -1
				for w := range want {
					if bytes.Equal(body, want[w]) {
						world = w
					}
				}
				if world < 0 {
					fail(fmt.Sprintf("a reply of neither world (status %d):\n got %s\nwant %s\n  or %s", status, body, want[0], want[1]))
					return
				}
				// The versions the reply may be of: those the child held during
				// the ask, none older than a reply that ended before it began.
				v := max(from, floor)
				if v%2 != int64(world) {
					v++
				}
				if v > to {
					fail(fmt.Sprintf("status %d, world %d: the ask began with refresh %d applied (and a reply of refresh %d seen) and ended with refresh %d begun",
						status, world, from, floor, to))
					return
				}
				if status == http.StatusNotModified && from == to {
					checked.Add(1)
				}
				for old := seen.Load(); old < v && !seen.CompareAndSwap(old, v); {
					old = seen.Load()
				}
			}
		}()
	}
	wg.Wait()
	if diff != "" {
		return diff
	}
	if done.Load() != refreshes || kinds[0].Load() < refreshes || checked.Load() == 0 {
		t.Fatalf("vacuous: %d refreshes, %d full replies, %d 304s, %d of them beside no refresh",
			done.Load(), kinds[0].Load(), kinds[1].Load(), checked.Load())
	}
	return ""
}

// TestLeaseWriteWait: a refresh of a child that granted a lease stops
// granting at once, waits the lease out and then applies, so it returns
// within LeaseTTL of the grant plus its own time; for LeaseTTL after it
// no lease is granted, and the next is under the next epoch of the same
// incarnation. A server whose clients never requested a lease never
// waits, and a write whose request ends while it waits applies nothing
// and frees the admin endpoints at once.
func TestLeaseWriteWait(t *testing.T) {
	req := memoAsks[1]
	fault := source.NewFault("src", memoWorld(0))
	s, ts := newTestServer(t, Config{Prog: yatl.MustParse("program selective\n" + memoRule(1, "brochure") + memoRule(3, "catalogue")),
		Sources: []source.Source{fault}})
	req.Functors = []string{"Pview3"}
	refresh := func() time.Duration {
		t.Helper()
		start := time.Now()
		resp, err := http.Post(ts.URL+"/admin/refresh-source/src", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refresh: status %d", resp.StatusCode)
		}
		return time.Since(start)
	}
	quiet := func(when string) {
		t.Helper()
		if _, _, grant, err := leasedAsk(ts.URL, "", req, true); err != nil || grant != "" {
			t.Errorf("%s: granted %q, %v; want no lease within LeaseTTL of a write", when, grant, err)
		}
		time.Sleep(wire.LeaseTTL)
	}

	// Unleased asks, then a refresh: no wait.
	for i := 0; i < 3; i++ {
		if status, _, grant, err := leasedAsk(ts.URL, "", req, false); err != nil || status != http.StatusOK || grant != "" {
			t.Fatalf("unleased ask: status %d, grant %q, %v", status, grant, err)
		}
	}
	fault.SetStore(memoWorld(1))
	own := refresh()
	if n := s.leaseWaits.Load(); n != 0 {
		t.Fatalf("no lease was requested, yet %d writes waited for one", n)
	}
	quiet("right after an unleased refresh")

	granted := time.Now()
	_, old, grant, err := leasedAsk(ts.URL, "", req, true)
	first, ok := wire.ParseEpoch(grant)
	if err != nil || !ok {
		t.Fatalf("leased ask: grant %q, %v", grant, err)
	}
	fault.SetStore(memoWorld(0))
	waited := make(chan time.Duration, 1)
	go func() { waited <- refresh() }()
	for s.pending.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// The write is pending: asks are still answered from the old world,
	// and no lease is granted.
	status, body, grant, err := leasedAsk(ts.URL, "", req, true)
	if err != nil || status != http.StatusOK || grant != "" || !bytes.Equal(body, old) {
		t.Errorf("an ask beside a pending write: status %d, grant %q, %v, same reply %v; want 200, no grant, the old reply",
			status, grant, err, bytes.Equal(body, old))
	}
	took := <-waited
	since := time.Since(granted)
	if since < wire.LeaseTTL {
		t.Errorf("the refresh returned %v after the grant, before the lease of %v expired", since, wire.LeaseTTL)
	}
	if slack := 200 * time.Millisecond; took > wire.LeaseTTL+own+slack {
		t.Errorf("the refresh took %v, past the lease of %v, its own %v and %v", took, wire.LeaseTTL, own, slack)
	}
	if n := s.leaseWaits.Load(); n != 1 {
		t.Errorf("%d writes waited for a lease, want 1", n)
	}
	var stats wire.StatsResponse
	if getJSON(t, ts.URL+"/stats?timing=0", &stats); stats.Server.LeaseWaits != 1 {
		t.Errorf("/stats reports %d lease waits, want 1", stats.Server.LeaseWaits)
	}
	quiet("right after a leased refresh")
	_, body, grant, _ = leasedAsk(ts.URL, "", req, true)
	next, ok := wire.ParseEpoch(grant)
	if !ok || next.Boot != first.Boot || next.Writes != first.Writes+1 || bytes.Equal(body, old) {
		t.Errorf("after the refresh: epoch %q (before %+v), new reply %v; want the next epoch and the new reply",
			grant, first, !bytes.Equal(body, old))
	}

	// A write whose context ends while it waits out that lease.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start, applied := time.Now(), false
	err = s.write(ctx, func() error { applied = true; return nil })
	if gave := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || applied || gave > wire.LeaseTTL/2 {
		t.Errorf("a write whose context ended while it waited: %v after %v, applied %v; want the deadline's error at once, nothing applied",
			err, gave, applied)
	}
	if _, _, grant, _ := leasedAsk(ts.URL, "", req, true); grant != string(wire.AppendEpoch(nil, next)) || s.pending.Load() != 0 {
		t.Errorf("after the abandoned write: granted %q, %d writes pending; want epoch %+v again, none pending", grant, s.pending.Load(), next)
	}
}

// TestLeaseWaitIsBounded: /ask is unauthenticated and any client may
// request a lease, so a writer cannot keep readers from holding one.
// What it can count on is the bound. Four clients ask for leases in a
// tight loop while the source is refreshed every 400 ms: each refresh
// returns within LeaseTTL and 50 ms, however many leases were granted
// before it. A refresh inside the quiet window that follows a write,
// when no lease has been granted, does not wait at all.
func TestLeaseWaitIsBounded(t *testing.T) {
	const refreshes, askers, period = 5, 4, 400 * time.Millisecond
	req := memoAsks[1]
	req.Functors = []string{"Pview3"}
	fault := source.NewFault("src", memoWorld(0))
	s, ts := newTestServer(t, Config{Prog: yatl.MustParse("program selective\n" + memoRule(1, "brochure") + memoRule(3, "catalogue")),
		Sources: []source.Source{fault}})
	refresh := func(w int) time.Duration {
		t.Helper()
		fault.SetStore(memoWorld(w))
		start := time.Now()
		resp, err := http.Post(ts.URL+"/admin/refresh-source/src", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refresh: status %d", resp.StatusCode)
		}
		return time.Since(start)
	}

	stop := make(chan struct{})
	var grants atomic.Int64
	var wg sync.WaitGroup
	for a := 0; a < askers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, grant, err := leasedAsk(ts.URL, "", req, true); err == nil && grant != "" {
					grants.Add(1)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	bound := wire.LeaseTTL + 50*time.Millisecond
	var worst time.Duration
	for n := 1; n <= refreshes; n++ {
		time.Sleep(period)
		waits := s.leaseWaits.Load()
		took := refresh(n % 2)
		if worst = max(worst, took); took > bound {
			t.Errorf("refresh %d took %v beside leased asks, want <= %v", n, took, bound)
		}
		if s.leaseWaits.Load() == waits {
			continue
		}
		// The refresh waited, so leases were being granted up to it: the
		// next write, right after, falls in its quiet window.
		if took := refresh((n + 1) % 2); s.leaseWaits.Load() != waits+1 || took > bound/2 {
			t.Errorf("a refresh in the quiet window after refresh %d took %v and waited %d times, want no wait",
				n, took, s.leaseWaits.Load()-waits-1)
		}
	}
	if grants.Load() == 0 || s.leaseWaits.Load() == 0 {
		t.Fatalf("vacuous: %d leases granted, %d refreshes waited for one", grants.Load(), s.leaseWaits.Load())
	}
	t.Logf("%d leases granted, %d of %d refreshes waited, the longest took %v", grants.Load(), s.leaseWaits.Load(), refreshes, worst)
}

// TestLeaseGrantors: only a server that built its mediator itself grants
// read leases. A server over Askers — a mediator built elsewhere, or a
// federation of leased children — promises nothing, since others can
// write to what it serves. A reply without the request grants nothing,
// and the grant changes no reply byte.
func TestLeaseGrantors(t *testing.T) {
	prog := yatl.MustParse(versionedSelective("v1", "v1"))
	req := wire.AskRequest{Pattern: warmPattern, Functors: []string{"Pview1"}}
	inputs := workload.BrochureStore(6, 2, 5, 11)
	_, own := newTestServer(t, Config{Prog: prog, Inputs: inputs})
	_, askers := newTestServer(t, Config{Askers: []mediator.Asker{mediator.New(prog, inputs, mediator.WithDemandDriven(true))}})
	fed := serveFederation(t, federate.Child{Asker: shardClient(t, own.URL)})
	var want []byte
	for _, c := range []struct {
		name, url string
		grants    bool
	}{{"own mediator", own.URL, true}, {"askers", askers.URL, false}, {"federation", fed, false}} {
		for _, leased := range []bool{false, true} {
			status, body, grant, err := leasedAsk(c.url, "", req, leased)
			if err != nil || status != http.StatusOK {
				t.Fatalf("%s: status %d, %v", c.name, status, err)
			}
			if want == nil {
				want = body
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s, leased %v: reply\n%s\nwant\n%s", c.name, leased, body, want)
			}
			if _, ok := wire.ParseEpoch(grant); ok != (leased && c.grants) || !ok && grant != "" {
				t.Errorf("%s, lease requested %v: granted %q", c.name, leased, grant)
			}
		}
	}
}

// TestLeasedReplayAsksNoChild: in serve_federated's shape, once the
// asks are memoized a federated ask under both children's leases asks
// neither child, and one whose children grant none asks each once,
// conditionally. The federation's stats count both kinds of replay and
// the children's 304s.
func TestLeasedReplayAsksNoChild(t *testing.T) {
	for _, leases := range []bool{true, false} {
		counts := &childCounts{leases: leases}
		ask, _, fed := federatedAsks(t, counts)
		const asks = 8
		for attempt := 0; ; attempt++ {
			for i := 0; i < asks; i++ { // renews the leases
				ask(t, i)
			}
			stats, traffic, start := fed.Stats(), counts.snapshot(), time.Now()
			for i := 0; i < asks; i++ {
				ask(t, i)
			}
			if leases && time.Since(start) > wire.LeaseTTL/2 && attempt < 5 {
				continue // a lease may have lapsed: measure again
			}
			after, now := fed.Stats(), counts.snapshot()
			requests := now[0] + now[1] - traffic[0] - traffic[1]
			replays, leased, notModified := after.MemoReplays-stats.MemoReplays, after.LeasedReplays-stats.LeasedReplays, after.NotModified-stats.NotModified
			want, wantLeased, wantNotModified := int64(2*asks), int64(0), int64(2*asks)
			if leases {
				want, wantLeased, wantNotModified = 0, asks, 0
			}
			if requests != want || replays != asks || leased != wantLeased || notModified != wantNotModified {
				t.Errorf("leases %v: %d asks made %d child requests, %d memo replays, %d leased, %d 304s; want %d, %d, %d, %d",
					leases, asks, requests, replays, leased, notModified, want, asks, wantLeased, wantNotModified)
			}
			break
		}
	}
}

// TestLeaseRestampedByUnchangedReply: a refresh that leaves a child's
// reply as it was still moves the child to its next write epoch, so the
// parent's first ask after it is conditional on the old epoch and
// answered in full; the bytes are the ones the memo saw, so the ask is
// replayed and re-stamps the memo's entry with the new epoch, and the
// ask after that is replayed under the new lease with no child asked.
func TestLeaseRestampedByUnchangedReply(t *testing.T) {
	m := newMemoFederation(t, true)
	req := memoAsks[1]
	_, want := rawAsk(t, m.single[0], "", req)
	for attempt := 0; ; attempt++ {
		m.direct(t, req, false)
		m.direct(t, req, false) // replayed, so the next miss of a lease is conditional
		m.moveTo(t, 0)          // the world it serves already
		time.Sleep(wire.LeaseTTL)
		start := m.traffic()
		first, memoized := m.direct(t, req, false)
		if !memoized || !bytes.Equal(first, want) {
			t.Fatalf("the first ask after the refresh, memoized %v:\n got %s\nwant %s", memoized, first, want)
		}
		mid, at := m.traffic(), time.Now()
		second, memoized := m.direct(t, req, false)
		if !memoized || !bytes.Equal(second, want) {
			t.Fatalf("the second ask after the refresh, memoized %v:\n got %s\nwant %s", memoized, second, want)
		}
		if time.Since(at) > wire.LeaseTTL/2 && attempt < 5 {
			continue // the new lease may have lapsed: try again
		}
		asks, _ := m.trafficSince(start)
		again, _ := m.trafficSince(mid)
		if asks[1] != [3]int64{1, 0, 0} || again != [2][3]int64{} {
			t.Errorf("the second child after its refresh asked (conditional, unconditional, 304) %v, then %v; want one conditional ask answered in full, then nothing",
				asks[1], again)
		}
		return
	}
}
