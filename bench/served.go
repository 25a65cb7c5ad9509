package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/engine"
	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// The load model of every served workload, fixed here and not by
// flags: two closed-loop keep-alive clients (one per core of the
// target box) against a two-lane pool; serve_churn trades one asking
// client for an open-loop refresher on a 200 ms timetable. Every
// window follows a warm-up (runConfig.warmup) whose operations are not
// counted.
const (
	numClients   = 2
	poolLanes    = 2
	refreshEvery = 200 * time.Millisecond
	deepEvery    = 64 // one reply in this many has its answers hashed, not just counted
	// traceGap spaces a client's traced asks: tracing is sampled, so a
	// fast workload is not slowed, nor its heap inflated, by a span per
	// request. Refreshes are always traced.
	traceGap     = 4 * time.Millisecond
	viewFunctors = 8
	partFamilies = 16
	partPerFam   = 100
	partGrow     = 5
	sourceName   = "src"
	viewPattern  = `view < -> name -> N, -> city -> C, -> zip -> Z >`
)

type digest = [sha256.Size]byte

// request is one distinct ask with its oracle: the answer count every
// reply must carry and the digest of the canonical answer bytes.
type request struct {
	body      []byte
	wantCount int
	wantHash  digest
	// altCount, when non-zero, is a second legitimate count: a
	// serve_churn family while its five inserted entries are present.
	// A reply with it is not hashed.
	altCount int
}

// served is one serve_* workload: its requests in oracle order, the
// order clients draw them in, and how to assemble the system.
type served struct {
	requests []request
	// fill lists the requests that, each asked once per lane, leave
	// every lane's demand cache warm.
	fill []int
	// uniform draws requests uniformly at random instead of rotating
	// through a seed-shuffled order.
	uniform bool
	// start assembles the servers exactly as cmd/yatserve would; a
	// non-nil recorder additionally installs the span decorators.
	start func(rec *recorder) (*system, error)
	// churn is set for serve_churn only.
	churn *churn
	// prog and store are what a private calibration mediator runs;
	// restorable says serve can warm-start this system from a snapshot
	// (a plain pool over a store).
	prog       *yatl.Program
	store      *tree.Store
	restorable bool
}

// churn is serve_churn's write side: the stores the source alternates
// between. Even refreshes serve grown[(r/2)%partFamilies] (five
// entries inserted into one family), odd refreshes serve base again.
type churn struct {
	base  *tree.Store
	grown []*tree.Store
}

func (c *churn) storeFor(refresh int) *tree.Store {
	if refresh%2 == 0 {
		return c.grown[(refresh/2)%len(c.grown)]
	}
	return c.base
}

// system is one assembled set of servers under test.
type system struct {
	url   string
	stops []func() error
	fault *source.Fault
}

func (s *system) close() error {
	var errs []error
	for i := len(s.stops) - 1; i >= 0; i-- {
		errs = append(errs, s.stops[i]())
	}
	return errors.Join(errs...)
}

// startServer boots one serve.Server on a loopback port. Untraced it
// is serve.New + Serve, as in cmd/yatserve; traced, the same handler
// runs behind the span middleware.
func startServer(cfg serve.Config, rec *recorder, askName string) (url string, stop func() error, err error) {
	s, err := serve.New(cfg)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	url = "http://" + ln.Addr().String()
	done := make(chan error, 1)
	if rec == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- s.Serve(ctx, ln) }()
		return url, func() error { cancel(); return <-done }, nil
	}
	srv := &http.Server{Handler: rec.middleware(askName, s.Handler())}
	go func() { done <- srv.Serve(ln) }()
	return url, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-done
		return err
	}, nil
}

// lanes builds a pool of demand-driven mediators behind span
// decorators — what serve.New would have built bare.
func (r *recorder) lanes(prog *yatl.Program, inputs *tree.Store, srcs ...source.Source) []mediator.Asker {
	out := make([]mediator.Asker, poolLanes)
	for i := range out {
		opts := []engine.Option{mediator.WithDemandDriven(true)}
		if len(srcs) > 0 {
			opts = append(opts, mediator.WithSources(srcs...))
		}
		out[i] = r.wrapAsker(mediator.New(prog, inputs, opts...), "mediator.ask")
	}
	return out
}

// startPool serves one program over a pre-materialized store.
func startPool(prog *yatl.Program, store *tree.Store, rec *recorder, askName string) (*system, error) {
	cfg := serve.Config{Prog: prog, Inputs: store, Pool: poolLanes}
	if rec != nil {
		cfg.Askers = rec.lanes(prog, store)
	}
	url, stop, err := startServer(cfg, rec, askName)
	if err != nil {
		return nil, err
	}
	return &system{url: url, stops: []func() error{stop}}, nil
}

// startChurn serves the partitioned program fed by one scripted
// source, so refreshes go through the source and delta layers.
func startChurn(prog *yatl.Program, base *tree.Store, rec *recorder) (*system, error) {
	fault := source.NewFault(sourceName, base)
	var src source.Source = fault
	cfg := serve.Config{Prog: prog, Pool: poolLanes}
	if rec != nil {
		src = &tracedSource{inner: fault, rec: rec}
		cfg.Askers = rec.lanes(prog, nil, src)
	}
	cfg.Sources = []source.Source{src}
	url, stop, err := startServer(cfg, rec, "serve.handler")
	if err != nil {
		return nil, err
	}
	return &system{url: url, stops: []func() error{stop}, fault: fault}, nil
}

// startFederation boots one child server per shard plan and a parent
// whose single lane scatter-gathers over remote clients to them, as
// yatserve -child does (children discovered at boot).
func startFederation(prog *yatl.Program, store *tree.Store, rec *recorder) (*system, error) {
	sys := &system{}
	fcfg := federate.Config{Programs: []*yatl.Program{prog}}
	for i, plan := range federate.PlanShards(prog, 2) {
		child, err := startPool(plan.Prog, store, rec, "serve.child_handler")
		if err != nil {
			return nil, errors.Join(err, sys.close())
		}
		sys.stops = append(sys.stops, child.stops...)
		var copts *federate.ClientOptions
		if rec != nil {
			copts = &federate.ClientOptions{HTTPClient: &http.Client{
				Transport: headerTransport{base: &http.Transport{MaxIdleConnsPerHost: numClients}}}}
		}
		cl := federate.NewClient(child.url, copts)
		sys.stops = append(sys.stops, func() error { cl.Close(); return nil })
		var asker mediator.Asker = cl
		if rec != nil {
			asker = rec.wrapAsker(cl, "federate.child_ask")
		}
		fcfg.Children = append(fcfg.Children, federate.Child{Name: fmt.Sprintf("shard%d", i), Asker: asker})
	}
	fed, err := federate.New(fcfg)
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	var lane mediator.Asker = fed
	if rec != nil {
		lane = rec.wrapAsker(fed, "federate.ask")
	}
	url, stop, err := startServer(serve.Config{Askers: []mediator.Asker{lane}, Prog: prog}, rec, "serve.handler")
	if err != nil {
		return nil, errors.Join(err, sys.close())
	}
	sys.url = url
	sys.stops = append(sys.stops, stop)
	return sys, nil
}

// hashAnswers digests answers in reply order: each name, then its
// bindings sorted by variable.
func hashAnswers(answers []wire.AskAnswer) digest {
	h := sha256.New()
	for _, a := range answers {
		io.WriteString(h, a.Name)
		vars := make([]string, 0, len(a.Binding))
		for v := range a.Binding {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(h, "\x00%s=%s", v, a.Binding[v])
		}
		io.WriteString(h, "\n")
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// wireOf renders oracle answers the way the server renders its own.
func wireOf(answers []mediator.Answer) []wire.AskAnswer {
	out := make([]wire.AskAnswer, len(answers))
	for i, a := range answers {
		out[i].Name = a.Name.String()
		if len(a.Binding) > 0 {
			out[i].Binding = make(map[string]string, len(a.Binding))
			for v, val := range a.Binding {
				out[i].Binding[v] = val.Display()
			}
		}
	}
	return out
}

func newRequest(pattern string, functors []string, want []wire.AskAnswer) request {
	body, err := json.Marshal(wire.AskRequest{Pattern: pattern, Functors: functors})
	if err != nil {
		panic(err) // strings always marshal
	}
	return request{body: body, wantCount: len(want), wantHash: hashAnswers(want)}
}

// oracleAsk answers from a full materialization — mediator.New without
// demand mode, the path no served lane takes.
func oracleAsk(full *mediator.Mediator, pattern string, functors ...string) ([]wire.AskAnswer, error) {
	answers, err := full.Ask(pattern, functors...)
	if err != nil {
		return nil, fmt.Errorf("oracle ask %v: %w", functors, err)
	}
	return wireOf(answers), nil
}

func viewFunctor(k int) string { return fmt.Sprintf("Pview%d", k) }
func partFunctor(k int) string { return fmt.Sprintf("Ppart%d", k) }

// newViews builds serve_warm (pairs=false: one request per view, the
// whole view per reply) or serve_federated (pairs=true: two adjacent
// views per request, so every ask scatters to both shards).
func newViews(seed uint64, pairs bool) (*served, error) {
	prog, err := yatl.Parse(workload.SelectiveProgram(viewFunctors))
	if err != nil {
		return nil, err
	}
	store := workload.BrochureStore(120, 3, 30, seed)
	full := mediator.New(prog, store)
	sv := &served{prog: prog, store: store, restorable: !pairs}
	for k := 1; k <= viewFunctors; k++ {
		functors := []string{viewFunctor(k)}
		if pairs {
			functors = append(functors, viewFunctor(k%viewFunctors+1))
		}
		want, err := oracleAsk(full, viewPattern, functors...)
		if err != nil {
			return nil, err
		}
		sv.requests = append(sv.requests, newRequest(viewPattern, functors, want))
		sv.fill = append(sv.fill, k-1)
	}
	if pairs {
		sv.start = func(rec *recorder) (*system, error) { return startFederation(prog, store, rec) }
	} else {
		sv.start = func(rec *recorder) (*system, error) { return startPool(prog, store, rec, "serve.handler") }
	}
	return sv, nil
}

// Sizes of serve_lookup: 500 supplier names × 8 views = 4000 distinct
// asks, far more than the 512 a lane's ask memo admits.
const (
	lookupBrochures = 400
	lookupSuppliers = 500
)

// newLookup builds serve_lookup: point lookups of one supplier in one
// view. The oracle derives each expectation from the full-view answers
// of a full materialization: the supplier's one answer without its N
// binding, or none when no brochure cites the supplier.
func newLookup(seed uint64) (*served, error) {
	prog, err := yatl.Parse(workload.SelectiveProgram(viewFunctors))
	if err != nil {
		return nil, err
	}
	store := workload.BrochureStore(lookupBrochures, 3, lookupSuppliers, seed)
	full := mediator.New(prog, store)
	sv := &served{prog: prog, store: store, uniform: true, restorable: true}
	for k := 1; k <= viewFunctors; k++ {
		view, err := oracleAsk(full, viewPattern, viewFunctor(k))
		if err != nil {
			return nil, err
		}
		byName := make(map[string]wire.AskAnswer, len(view))
		for _, a := range view {
			byName[a.Binding["N"]] = a
		}
		sv.fill = append(sv.fill, len(sv.requests))
		for s := 1; s <= lookupSuppliers; s++ {
			name := fmt.Sprintf("%q", fmt.Sprintf("Supplier %03d", s))
			var want []wire.AskAnswer
			if a, ok := byName[name]; ok {
				want = []wire.AskAnswer{{Name: a.Name, Binding: map[string]string{
					"C": a.Binding["C"], "Z": a.Binding["Z"]}}}
			}
			pattern := `view < -> name -> ` + name + `, -> city -> C, -> zip -> Z >`
			sv.requests = append(sv.requests, newRequest(pattern, []string{viewFunctor(k)}, want))
		}
	}
	sv.start = func(rec *recorder) (*system, error) { return startPool(prog, store, rec, "serve.handler") }
	return sv, nil
}

// newChurn builds serve_churn. The seed names the inserted entries
// and shuffles the ask order; the partitioned store itself is fixed.
func newChurn(seed uint64) (*served, error) {
	prog, err := yatl.Parse(workload.PartitionedProgram(partFamilies))
	if err != nil {
		return nil, err
	}
	ch := &churn{base: workload.PartitionedStore(partFamilies, partPerFam)}
	for fam := 1; fam <= partFamilies; fam++ {
		g := ch.base.Clone()
		for j := 0; j < partGrow; j++ {
			n, t := workload.PartitionedEntry(fam, fmt.Sprintf("g%d_%d", seed, j), int64(partPerFam+j))
			g.Put(n, t)
		}
		ch.grown = append(ch.grown, g)
	}
	sv := &served{prog: prog, store: ch.base, churn: ch}
	sv.requests, err = churnRequests(prog, ch.base)
	if err != nil {
		return nil, err
	}
	for i := range sv.requests {
		sv.requests[i].altCount = partPerFam + partGrow
		sv.fill = append(sv.fill, i)
	}
	sv.start = func(rec *recorder) (*system, error) { return startChurn(prog, ch.base, rec) }
	return sv, nil
}

// churnRequests is one ask per family with its expectation over the
// given store, from a fresh full materialization.
func churnRequests(prog *yatl.Program, store *tree.Store) ([]request, error) {
	full := mediator.New(prog, store)
	var out []request
	for fam := 1; fam <= partFamilies; fam++ {
		want, err := oracleAsk(full, "X", partFunctor(fam))
		if err != nil {
			return nil, err
		}
		out = append(out, newRequest("X", []string{partFunctor(fam)}, want))
	}
	return out, nil
}

// picker returns the client's request sequence: a rotation through a
// seed-shuffled order, each client starting at its own offset, or
// uniform draws from the client's own generator.
func (sv *served) picker(seed uint64, client int) func() int {
	n := len(sv.requests)
	if sv.uniform {
		rng := rand.New(rand.NewSource(int64(seed)*numClients + int64(client)))
		return func() int { return rng.Intn(n) }
	}
	order := rand.New(rand.NewSource(int64(seed))).Perm(n)
	i := client * n / numClients
	return func() int { i++; return order[i%n] }
}

// client is one caller: it issues one request at a time over its own
// keep-alive connection.
type client struct {
	hc  *http.Client
	url string
	rec *recorder // nil when untraced
}

func newClient(url string, rec *recorder) *client {
	return &client{url: url, rec: rec, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// close drops the client's connection; the next request dials anew.
func (c *client) close() { c.hc.CloseIdleConnections() }

var failuresLogged atomic.Int32

// fail logs the process's first few failures; the rest only count.
func (c *client) fail(err error) error {
	if failuresLogged.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "bench: failed operation:", err)
	}
	return err
}

// post sends one POST and returns the reply body. A non-empty
// spanName opens a client span the caller must end (its id is -1 when
// none was opened).
func (c *client) post(spanName, path string, body []byte) (data []byte, ref spanRef, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, ref, err
	}
	req.Header.Set("Content-Type", "application/json")
	ref = spanRef{id: -1}
	if spanName != "" {
		ref.req = c.rec.nextReq.Add(1)
		ref.id = c.rec.start(spanName, -1, ref.req)
		setSpanHeaders(req.Header, ref)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, ref, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, data)
	}
	return data, ref, err
}

// ask performs one POST /ask and checks the reply against the oracle:
// always the count, and the digest of the answers when deep is set.
// A traced ask is recorded as a client span over the whole call with a
// decode span inside. It returns the reply size.
func (c *client) ask(rq *request, deep, traced bool) (int, error) {
	spanName := ""
	if traced {
		spanName = "client.ask"
	}
	data, ref, err := c.post(spanName, "/ask", rq.body)
	if traced {
		defer c.rec.end(ref.id)
	}
	if err != nil {
		return 0, c.fail(err)
	}
	var out wire.AskResponse
	if traced {
		id := c.rec.start("client.decode", ref.id, ref.req)
		err = json.Unmarshal(data, &out)
		c.rec.end(id)
	} else {
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		return 0, c.fail(fmt.Errorf("decoding reply: %w", err))
	}
	switch {
	case out.Count != len(out.Answers):
		return 0, c.fail(fmt.Errorf("reply says count %d but carries %d answers", out.Count, len(out.Answers)))
	case out.Count == rq.wantCount:
		if deep && hashAnswers(out.Answers) != rq.wantHash {
			return 0, c.fail(fmt.Errorf("oracle mismatch: answers of %s differ", rq.body))
		}
	case rq.altCount != 0 && out.Count == rq.altCount:
	default:
		return 0, c.fail(fmt.Errorf("oracle mismatch: %s answered %d, want %d", rq.body, out.Count, rq.wantCount))
	}
	return len(data), nil
}

// loadResult is what one warm-up + measured window produced.
type loadResult struct {
	attempted, failed int
	asks              []op // successful asks of the measured window
	refs              []op // reference rounds run between them
	refreshes         []op // serve_churn: refresh latency from the due time
	lateMS            []float64
	reqBytes          []float64
	respBytes         []float64
	final             *tree.Store // serve_churn: the store the last refresh installed
	// Traced windows only: what the recorder held when the load stopped.
	spans    []span
	counters map[string]int64
}

func (a *loadResult) merge(b loadResult) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.asks = append(a.asks, b.asks...)
	a.refs = append(a.refs, b.refs...)
	a.reqBytes = append(a.reqBytes, b.reqBytes...)
	a.respBytes = append(a.respBytes, b.respBytes...)
}

// askLoop is one closed-loop client: the next ask leaves when the
// previous reply has been checked. Asks begun during the warm-up are
// not counted; the measured ones are appended to asks, and the
// reference rounds run between them to refs.
func (c *client) askLoop(sv *served, next func() int, asks, refs []op, t0 time.Time, warmup, length time.Duration) loadResult {
	res := loadResult{asks: asks, refs: refs}
	traceEvery := 0 // fixed by the first measured ask
	slice := -1
	lastRef := t0
	for n := 0; ; n++ {
		start := time.Now()
		if start.Sub(t0) >= warmup+length {
			return res
		}
		measured := start.Sub(t0) >= warmup
		if measured && traceEvery == 0 {
			traceEvery = max(1, int(int64(n)*int64(traceGap)/int64(start.Sub(t0)+1)))
		}
		// Ask latency was measured to differ by several percent from
		// one set of connections to the next and to hold steady while
		// they live, so each slice of the window gets connections of
		// its own and the median over slices is not one draw.
		if now := sliceOf(start.Sub(t0)-warmup, length); measured && now != slice {
			slice = now
			c.close()
		}
		traced := c.rec != nil && measured && n%traceEvery == 0
		rq := &sv.requests[next()]
		size, err := c.ask(rq, n%deepEvery == 0, traced)
		done := time.Now()
		if measured {
			res.attempted++
			if err != nil {
				res.failed++
			} else {
				res.asks = append(res.asks, op{done: done.Sub(t0) - warmup, ms: float64(done.Sub(start)) / 1e6})
				if traced {
					res.reqBytes = append(res.reqBytes, float64(len(rq.body)))
					res.respBytes = append(res.respBytes, float64(size))
				}
			}
		}
		// The warm-up runs reference rounds too, so the window sees the
		// load it will be measured under.
		if done.Sub(lastRef) >= refGap {
			ms := referenceRound()
			lastRef = time.Now()
			if measured {
				res.refs = append(res.refs, op{done: lastRef.Sub(t0) - warmup, ms: ms})
			}
		}
	}
}

// refreshLoop is serve_churn's open-loop writer: refresh k is due at
// k·refreshEvery whether or not the previous one has returned, and is
// timed from that due time.
func (c *client) refreshLoop(sys *system, ch *churn, t0 time.Time, warmup, length time.Duration) loadResult {
	res := loadResult{final: ch.base}
	sched := schedule{start: t0, every: refreshEvery}
	for k := 0; sched.due(k).Sub(t0) < warmup+length; k++ {
		time.Sleep(time.Until(sched.due(k)))
		res.final = ch.storeFor(k)
		sys.fault.SetStore(res.final)
		sent := time.Now()
		spanName := ""
		if c.rec != nil {
			spanName = "client.refresh"
		}
		_, ref, err := c.post(spanName, "/admin/refresh-source/"+sourceName, nil)
		done := time.Now()
		if c.rec != nil {
			c.rec.end(ref.id)
		}
		if sched.due(k).Sub(t0) < warmup {
			continue
		}
		res.attempted++
		if err != nil {
			c.fail(err)
			res.failed++
			continue
		}
		res.refreshes = append(res.refreshes, op{done: done.Sub(t0) - warmup,
			ms: float64(sched.sinceDue(k, done)) / 1e6})
		res.lateMS = append(res.lateMS, float64(sched.lateness(k, sent))/1e6)
	}
	return res
}

// warmFill asks every fill request once per lane and checks it deeply;
// it is the tail of set-up, and what makes the first measured ask a hit.
func (sv *served) warmFill(c *client) error {
	for _, i := range sv.fill {
		for lane := 0; lane < poolLanes; lane++ {
			if _, err := c.ask(&sv.requests[i], true, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// setup assembles the system and warms it; the time it takes is one
// setup_s sample.
func (sv *served) setup(rec *recorder) (*system, time.Duration, error) {
	start := time.Now()
	sys, err := sv.start(rec)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(sys.url, nil)
	defer c.close()
	if err := sv.warmFill(c); err != nil {
		return nil, 0, errors.Join(err, sys.close())
	}
	return sys, time.Since(start), nil
}

// load runs the warm-up and one measured window against a warm system.
// The recorder, when given, keeps what starts after the warm-up.
func (sv *served) load(sys *system, rec *recorder, seed uint64, warmup, length time.Duration) (loadResult, error) {
	askers := numClients
	if sv.churn != nil {
		askers--
	}
	bufs := make([][]op, 2*askers) // each asker's asks, then its reference rounds
	for i := range bufs {
		var err error
		if bufs[i], err = opBuffer(length); err != nil {
			return loadResult{}, err
		}
	}
	t0 := time.Now()
	if rec != nil {
		rec.measureFrom(t0.Add(warmup))
	}
	results := make([]loadResult, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(sys.url, rec)
			defer c.close()
			results[i] = c.askLoop(sv, sv.picker(seed, i), bufs[2*i], bufs[2*i+1], t0, warmup, length)
		}(i)
	}
	var total loadResult
	if sv.churn != nil {
		c := newClient(sys.url, rec)
		total = c.refreshLoop(sys, sv.churn, t0, warmup, length)
		c.close()
	}
	wg.Wait()
	asks, refs := 0, 0
	for _, r := range results {
		asks += len(r.asks)
		refs += len(r.refs)
	}
	// Merged off the heap too: retained_heap_mb is read after this. A
	// mapping cannot be empty, hence the 1.
	merged, err := offHeap[op](asks + refs + 1)
	if err != nil {
		return total, err
	}
	total.asks, total.refs = merged[:0:asks], merged[asks:asks:asks+refs]
	for _, r := range results {
		total.merge(r)
	}
	if rec != nil {
		total.spans, total.counters = rec.snapshot()
	}
	return total, nil
}

// checkFinal is serve_churn's delta ≡ re-run oracle: with the load
// stopped, every family on every lane must answer exactly as a fresh
// full materialization over the last installed store does.
func (sv *served) checkFinal(url string, res *loadResult) {
	c := newClient(url, nil)
	defer c.close()
	want, err := churnRequests(sv.prog, res.final)
	if err != nil {
		c.fail(err)
		res.attempted++
		res.failed++
		return
	}
	for i := range want {
		for lane := 0; lane < poolLanes; lane++ {
			res.attempted++
			if _, err := c.ask(&want[i], true, false); err != nil {
				res.failed++
			}
		}
	}
}
