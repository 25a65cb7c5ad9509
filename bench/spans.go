package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/mediator"
	"yat/internal/snapshot"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// span is one timed call into a layer. Times are nanoseconds since
// the recorder's epoch; Parent is the index of the span that caused
// this one (-1 at the top); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// rawSpan is a span as the recorder stores it while the load runs:
// pointer-free, so it can live outside the Go heap.
type rawSpan struct {
	start, end int64
	req        uint64
	parent     int32
	name       uint8 // index into recorder.names
}

// maxSpans caps a recording; sampling keeps a run far below it.
const maxSpans = 1 << 18

// recorder keeps spans and counters in memory for the traced window
// and writes them out once, when the benchmark ends.
type recorder struct {
	epoch time.Time
	// cut is when the measured window opens, in nanoseconds since the
	// epoch: earlier spans stay in the trace but feed no metric, and
	// earlier counts are dropped.
	cut atomic.Int64
	// nextReq numbers the traced requests.
	nextReq atomic.Uint64

	mu       sync.Mutex
	spans    []rawSpan
	names    []string
	counters map[string]int64
}

func newRecorder() (*recorder, error) {
	spans, err := offHeap[rawSpan](maxSpans)
	if err != nil {
		return nil, err
	}
	r := &recorder{epoch: time.Now(), counters: map[string]int64{}, spans: spans[:0]}
	r.cut.Store(math.MaxInt64)
	return r, nil
}

func (r *recorder) measureFrom(t time.Time) { r.cut.Store(int64(t.Sub(r.epoch))) }

// start opens a span and returns its index, or -1 once the recording
// is full.
func (r *recorder) start(name string, parent int, req uint64) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == cap(r.spans) {
		r.counters["trace.dropped_spans"]++
		return -1
	}
	code := -1
	for i, n := range r.names {
		if n == name {
			code = i
			break
		}
	}
	if code < 0 {
		r.names = append(r.names, name)
		code = len(r.names) - 1
	}
	r.spans = append(r.spans, rawSpan{start: now, end: now, req: req, parent: int32(parent), name: uint8(code)})
	return len(r.spans) - 1
}

// end closes a span; the -1 of a span that was never opened is ignored.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// stage opens a top-level span and returns the function that closes
// it, for code that brackets a call rather than wrapping a value.
func (r *recorder) stage(name string) func() {
	id := r.start(name, -1, 0)
	return func() { r.end(id) }
}

func (r *recorder) add(counter string, n int64) {
	if int64(time.Since(r.epoch)) < r.cut.Load() {
		return
	}
	r.mu.Lock()
	r.counters[counter] += n
	r.mu.Unlock()
}

// snapshot copies the recorded state.
func (r *recorder) snapshot() ([]span, map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	spans := make([]span, len(r.spans))
	for i, s := range r.spans {
		spans[i] = span{Name: r.names[s.name], Start: s.start, End: s.end, Parent: int(s.parent), Req: s.req}
	}
	return spans, counters
}

// write dumps the trace as one JSON document.
func (r *recorder) write(path string) error {
	spans, counters := r.snapshot()
	data, err := json.Marshal(struct {
		MeasuredFrom int64            `json:"measured_from_ns"`
		Spans        []span           `json:"spans"`
		Counters     map[string]int64 `json:"counters"`
	}{r.cut.Load(), spans, counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes is, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children count once, and a
// child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// The request id and the causing span travel between processes' worth
// of layers in two headers the benchmark sets itself, and inside one
// server in the request context.
const (
	headerRequest = "X-Bench-Request"
	headerParent  = "X-Bench-Parent"
)

type spanRef struct {
	id  int
	req uint64
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// spanFrom reads the calling span. Tracing is sampled by the client:
// a request that carries no span is served without recording any.
func spanFrom(ctx context.Context) (spanRef, bool) {
	if ctx == nil {
		return spanRef{}, false
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

func setSpanHeaders(h http.Header, ref spanRef) {
	h.Set(headerRequest, strconv.FormatUint(ref.req, 10))
	h.Set(headerParent, strconv.Itoa(ref.id))
}

// middleware records one span per request whose headers name a
// calling span: an ask (named askName) or a source refresh.
func (r *recorder) middleware(askName string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(headerParent))
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		name := askName
		if strings.HasPrefix(req.URL.Path, "/admin/refresh-source/") {
			name = "serve.refresh"
		}
		ref := spanRef{}
		ref.req, _ = strconv.ParseUint(req.Header.Get(headerRequest), 10, 64)
		ref.id = r.start(name, parent, ref.req)
		next.ServeHTTP(w, req.WithContext(withSpan(req.Context(), ref)))
		r.end(ref.id)
	})
}

// headerTransport forwards the calling span over a federation
// client's HTTP hop.
type headerTransport struct{ base http.RoundTripper }

func (t headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		setSpanHeaders(req.Header, ref)
	}
	return t.base.RoundTrip(req)
}

// tracedAsker records a span around every ask of the wrapped Asker.
// It answers Generation and Program the way serve would have derived
// them from the bare lane, so wrapping changes no response.
type tracedAsker struct {
	inner mediator.Asker
	rec   *recorder
	name  string
}

func (t *tracedAsker) Ask(pattern string, functors ...string) ([]mediator.Answer, error) {
	return t.inner.Ask(pattern, functors...)
}

func (t *tracedAsker) AskContext(ctx context.Context, pattern string, functors ...string) ([]mediator.Answer, error) {
	ref, ok := spanFrom(ctx)
	if !ok {
		return t.inner.AskContext(ctx, pattern, functors...)
	}
	ref.id = t.rec.start(t.name, ref.id, ref.req)
	defer t.rec.end(ref.id)
	return t.inner.AskContext(withSpan(ctx, ref), pattern, functors...)
}

func (t *tracedAsker) Functors() ([]string, error) { return t.inner.Functors() }
func (t *tracedAsker) Stats() mediator.Stats       { return t.inner.Stats() }

func (t *tracedAsker) Generation() int64 {
	if g, ok := t.inner.(interface{ Generation() int64 }); ok {
		return g.Generation()
	}
	return t.inner.Stats().Generation
}

func (t *tracedAsker) Program() *yatl.Program {
	if p, ok := t.inner.(interface{ Program() *yatl.Program }); ok {
		return p.Program()
	}
	return nil
}

// tracedMediator adds the admin capabilities serve discovers by type
// assertion, so refresh, reload and snapshot endpoints keep working
// when the pool's lanes are wrapped. Only a *mediator.Mediator has
// them; any other Asker stays a plain tracedAsker and serve keeps
// answering 501 for it.
type tracedMediator struct {
	tracedAsker
	med *mediator.Mediator
}

func (t *tracedMediator) RefreshSource(ctx context.Context, name string) error {
	ref, ok := spanFrom(ctx)
	if !ok {
		return t.med.RefreshSource(ctx, name)
	}
	ref.id = t.rec.start("mediator.refresh", ref.id, ref.req)
	defer t.rec.end(ref.id)
	return t.med.RefreshSource(withSpan(ctx, ref), name)
}

func (t *tracedMediator) Reload(prog *yatl.Program)             { t.med.Reload(prog) }
func (t *tracedMediator) Snapshot() (*snapshot.Snapshot, error) { return t.med.Snapshot() }
func (t *tracedMediator) Restore(s *snapshot.Snapshot) error    { return t.med.Restore(s) }
func (t *tracedMediator) Invalidate()                           { t.med.Invalidate() }

// wrapAsker picks the decorator that preserves the lane's
// capabilities.
func (r *recorder) wrapAsker(a mediator.Asker, name string) mediator.Asker {
	base := tracedAsker{inner: a, rec: r, name: name}
	if med, ok := a.(*mediator.Mediator); ok {
		return &tracedMediator{tracedAsker: base, med: med}
	}
	return &base
}

// tracedSource counts every fetch and records a span around those a
// traced request causes. It forwards the chain's SourceStats.
type tracedSource struct {
	inner source.Source
	rec   *recorder
}

func (t *tracedSource) Name() string { return t.inner.Name() }

func (t *tracedSource) Fetch(ctx context.Context) (*tree.Store, error) {
	id := -1
	if ref, ok := spanFrom(ctx); ok {
		id = t.rec.start("source.fetch", ref.id, ref.req)
	}
	st, err := t.inner.Fetch(ctx)
	t.rec.end(id)
	t.rec.add("source.fetches", 1)
	if err != nil {
		t.rec.add("source.failures", 1)
	}
	return st, err
}

func (t *tracedSource) SourceStats() source.Stats { return source.StatsOf(t.inner) }
