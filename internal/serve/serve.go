// Package serve turns the mediator into what the paper says it is —
// a service. A Server fronts one demand-driven mediator with an
// HTTP/JSON API:
//
//	POST /ask                        pattern query over the virtual target
//	GET  /functors                   Skolem functors of the target
//	GET  /stats                      mediator.Stats (shared renderer)
//	GET  /explain                    an ask under a request-scoped EXPLAIN profile
//	GET  /healthz                    liveness + per-source health
//	POST /admin/reload               hot-swap a recompiled program
//	POST /admin/refresh-source/{name}  re-fetch one source, invalidate dependents
//
// Requests ride the existing functional-options API: AskContext
// carries the request context for cancellation, typed engine errors
// map onto stable JSON error codes and HTTP statuses, and tracing is
// strictly request-scoped. /ask?explain=1 and /explain put a fresh
// profile in the ask's context (trace.WithSink) and ask the served
// asker like any other ask: memo, demand cache and pinned data alike,
// so the profile shows what that ask cost. A plain ask's context
// carries no sink, and nothing is recorded (the zero-overhead
// guarantee).
//
// Every request goroutine asks the one mediator: its memo and demand
// hits take no lock, so they neither contend with each other nor wait
// behind a refresh or a cold slice. Hot reload calls Mediator.Reload,
// which swaps the program behind an atomic generation and carries warm
// cache state for unchanged rule slices across the swap. A server built
// over Config.Askers instead assigns asks to them round-robin and
// applies admin operations to every one.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/engine"
	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/snapshot"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Config assembles a Server.
type Config struct {
	// Askers, when set, are served instead of the server's own mediator,
	// round-robin — any mediator.Asker: a federation router, remote
	// shard clients, or pre-built mediators. Prog then becomes optional
	// (it still names the program in /healthz when given). An explained
	// ask over them shows this server's layers only: a remote asker's
	// own events stay with it.
	Askers []mediator.Asker
	// Prog is the conversion program to serve. Required unless Askers
	// is set.
	Prog *yatl.Program
	// Inputs is the pre-materialized input store. The server's own
	// mediator needs it or Sources.
	Inputs *tree.Store
	// Sources are fault-tolerant live sources feeding the mediator.
	Sources []source.Source
	// Pool configures nothing: the server runs one mediator. It is kept
	// only for callers that still set it, and goes in the next change
	// that may touch them.
	Pool int
	// DrainTimeout bounds the graceful drain of in-flight asks on
	// shutdown (default 10s).
	DrainTimeout time.Duration
	// SnapshotDir, when set, enables durable warm starts: New restores
	// the mediator from <dir>/yatserve.snapshot.json when the file's
	// program and options hashes match what the server is about to
	// serve (any mismatch is logged and boots cold), and POST
	// /admin/snapshot persists its cache back to it.
	SnapshotDir string
	// SnapshotOnDrain also writes a snapshot during graceful shutdown,
	// after in-flight asks drain.
	SnapshotOnDrain bool
	// Logf receives one-line operational logs (nil = silent).
	Logf func(format string, args ...any)
}

// SnapshotFile is the name of the snapshot inside Config.SnapshotDir.
const SnapshotFile = "yatserve.snapshot.json"

// Server is the long-running mediator service. What it serves are
// Askers — its own mediator, or the configured federation routers,
// remote shard clients and mediators, interchangeable behind the query
// interface.
type Server struct {
	cfg  Config
	pool []mediator.Asker // one local mediator unless Config.Askers
	next atomic.Uint64

	admin sync.Mutex // held by write: serializes reload/refresh across the askers

	// Durable warm-start state; snapPath is empty when disabled.
	snapPath     string
	snapMu       sync.Mutex // serializes writes; guards the fields below
	snapRestored bool
	snapFallback string
	snapSaves    int64
	snapSaveErr  string

	// The write epoch, which tags ask replies (the wire package's
	// conditional /ask) and read leases (wire.LeaseHeader). Only a server
	// that built its mediator itself holds one: nothing but its own admin
	// endpoints writes that mediator. leaseUntil is when the last lease
	// granted expires and quietUntil when the last write applied plus
	// LeaseTTL, both in nanoseconds since start; pending counts the
	// writes begun and not yet returned, and while one is no reply is
	// tagged and no lease granted; epoch is the write epoch as replies
	// carry it.
	grants     bool
	leaseUntil atomic.Int64
	quietUntil atomic.Int64
	pending    atomic.Int64
	boot       uint64
	writes     uint64 // guarded by admin
	epoch      atomic.Pointer[epochTags]
	leaseWaits atomic.Int64 // writes that waited for a lease to expire
	// Test instrumentation, unset in the library: the unsound children
	// the lease and conditional-ask tests must catch. skipLeaseWait
	// applies writes without waiting out the leases it granted;
	// tagWhilePending tags replies, and answers 304, while a write is
	// pending; tagAfterReply reads the epoch after computing the reply.
	skipLeaseWait, tagWhilePending, tagAfterReply bool

	inflight atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64
	reloads  atomic.Int64
	start    time.Time
}

// New builds a Server over one demand-driven mediator (or the
// configured askers). It fails fast on a nil program, or a mediator
// with nothing to read, instead of surprising the first request.
func New(cfg Config) (*Server, error) {
	if cfg.Prog == nil && len(cfg.Askers) == 0 {
		return nil, errors.New("serve: Config.Prog or Config.Askers is required")
	}
	if len(cfg.Askers) == 0 && cfg.Inputs == nil && len(cfg.Sources) == 0 {
		return nil, errors.New("serve: Config.Inputs or Config.Sources is required unless Config.Askers is set")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, start: time.Now()}
	if cfg.SnapshotDir != "" {
		s.snapPath = filepath.Join(cfg.SnapshotDir, SnapshotFile)
	}
	s.pool = cfg.Askers
	if len(s.pool) == 0 {
		s.pool = []mediator.Asker{mediator.New(cfg.Prog, cfg.Inputs,
			mediator.WithDemandDriven(true), mediator.WithSources(cfg.Sources...))}
		s.grants = true
	}
	for s.boot == 0 {
		s.boot = rand.Uint64()
	}
	s.publishEpoch()
	if s.snapPath != "" {
		s.restoreSnapshot()
	}
	return s, nil
}

// restoreSnapshot warm-starts the mediator from the snapshot file.
// Every failure — missing file, integrity, identity mismatch, an asker
// that cannot restore — is a logged fallback to the cold boot New
// already performed.
func (s *Server) restoreSnapshot() {
	fallback := func(reason, detail string) {
		s.snapFallback = reason
		s.cfg.Logf("yatserve: cold boot (%s): %s", reason, detail)
	}
	snap, err := snapshot.Read(s.snapPath)
	if err != nil {
		var lerr *snapshot.LoadError
		if errors.As(err, &lerr) {
			fallback(string(lerr.Reason), err.Error())
		} else {
			fallback(string(snapshot.ReasonCorrupt), err.Error())
		}
		return
	}
	r, ok := only[restorer](s.pool)
	if !ok {
		fallback("unsupported", "the served askers do not support restore (remote, federated or several)")
		return
	}
	if err := r.Restore(snap); err != nil {
		reason := "restore_error"
		var lerr *snapshot.LoadError
		if errors.As(err, &lerr) {
			reason = string(lerr.Reason)
		}
		fallback(reason, err.Error())
		return
	}
	s.snapRestored = true
	s.cfg.Logf("yatserve: warm start from %s (format %d, generation %d, %d functor groups)",
		s.snapPath, snap.Format, snap.Generation, len(snap.Payload.Groups))
}

// writeSnapshot persists the mediator's demand cache to the snapshot
// path. Serialized by snapMu so a drain and an admin request cannot
// interleave their temp files.
func (s *Server) writeSnapshot() (*wire.SnapshotResponse, error) {
	sn, ok := only[snapshotter](s.pool)
	if !ok {
		return nil, errors.New("serve: the served askers do not support snapshots (remote, federated or several)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snap, err := sn.Snapshot()
	if err == nil {
		var n int
		if n, err = snapshot.Write(s.snapPath, snap); err == nil {
			s.snapSaves++
			s.snapSaveErr = ""
			s.cfg.Logf("yatserve: snapshot %s (generation %d, %d bytes)",
				s.snapPath, snap.Generation, n)
			return &wire.SnapshotResponse{Path: s.snapPath, Generation: snap.Generation, Bytes: n}, nil
		}
	}
	s.snapSaveErr = err.Error()
	s.cfg.Logf("yatserve: snapshot failed: %v", err)
	return nil, err
}

// snapshotStatus reports the warm-start state for /stats and
// /healthz; nil when snapshots are not configured.
func (s *Server) snapshotStatus() *wire.SnapshotStatus {
	if s.snapPath == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return &wire.SnapshotStatus{
		Path:           s.snapPath,
		Restored:       s.snapRestored,
		FallbackReason: s.snapFallback,
		Saves:          s.snapSaves,
		LastSaveErr:    s.snapSaveErr,
	}
}

// The optional asker capabilities, discovered by type assertion: a
// local *mediator.Mediator has them all, remote shard clients and
// federation routers only some.
type (
	reloader  interface{ Reload(*yatl.Program) }
	refresher interface {
		RefreshSource(context.Context, string) error
	}
	snapshotter interface {
		Snapshot() (*snapshot.Snapshot, error)
	}
	restorer interface {
		Restore(*snapshot.Snapshot) error
	}
	programmer   interface{ Program() *yatl.Program }
	generationer interface{ Generation() int64 }
	// replier renders an ask's reply itself, with the generation that
	// answered: a mediator keeps it in its ask memo, so a repeated ask
	// writes the bytes it rendered once, and a federation renders its
	// children's bytes into it without parsing them.
	replier interface {
		AskReply(ctx context.Context, patternSrc string, functors []string, keyed bool,
			render func(generation int64, answers []mediator.Answer) []byte) ([]byte, error)
	}
)

// lanesAs asserts capability C on every asker, all or nothing: an
// admin operation checks them all before mutating any, so a mixed set
// never ends up half-swapped.
func lanesAs[C any](pool []mediator.Asker) ([]C, bool) {
	out := make([]C, len(pool))
	for i, m := range pool {
		c, ok := m.(C)
		if !ok {
			return nil, false
		}
		out[i] = c
	}
	return out, true
}

// only asserts capability C on the one asker a snapshot is taken of or
// restored into; several askers, which would each hold a cache of
// their own, have none.
func only[C any](pool []mediator.Asker) (C, bool) {
	if len(pool) != 1 {
		var none C
		return none, false
	}
	c, ok := pool[0].(C)
	return c, ok
}

// lane picks the asker to serve a request: the one mediator, or the
// next configured asker, round-robin.
func (s *Server) lane() mediator.Asker {
	if len(s.pool) == 1 {
		return s.pool[0]
	}
	return s.pool[s.next.Add(1)%uint64(len(s.pool))]
}

// progName is the name of the currently served program (construction
// or the most recent successful reload). Askers that cannot report one
// — remote clients — fall back to the configured program, if any.
func (s *Server) progName() string {
	p := s.cfg.Prog
	if pr, ok := s.pool[0].(programmer); ok && pr.Program() != nil {
		p = pr.Program()
	}
	if p != nil {
		return p.Name
	}
	return "(remote)"
}

// generationOf reads an asker's generation, through the optional
// interface when offered, else from its stats snapshot.
func generationOf(a mediator.Asker) int64 {
	if g, ok := a.(generationer); ok {
		return g.Generation()
	}
	return a.Stats().Generation
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ask", s.handleAsk)
	mux.HandleFunc("GET /functors", s.handleFunctors)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.HandleFunc("POST /admin/refresh-source/{name}", s.handleRefreshSource)
	mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	return mux
}

// ErrorCode maps an ask error onto its stable JSON error code and
// HTTP status. The codes are part of the wire contract: clients
// dispatch on them, so they only ever grow.
func ErrorCode(err error) (code string, status int) {
	var (
		parseErr   *yatl.ParseError
		safety     *engine.SafetyError
		dup        *engine.DuplicateRuleError
		unconv     *engine.ErrUnconverted
		nondet     *engine.NonDetError
		fixpoint   *engine.FixpointError
		fetch      *mediator.FetchError
		notFound   *mediator.NotFoundError
		unroutable *federate.UnroutableError
		fanout     *federate.FanoutError
	)
	switch {
	case err == nil:
		return "", http.StatusOK
	case errors.As(err, &parseErr):
		return "parse_error", http.StatusBadRequest
	case errors.As(err, &safety):
		return "safety_error", http.StatusUnprocessableEntity
	case errors.As(err, &dup):
		return "duplicate_rule", http.StatusUnprocessableEntity
	case errors.As(err, &unconv):
		return "unconverted", http.StatusUnprocessableEntity
	case errors.As(err, &nondet):
		return "nondeterministic", http.StatusUnprocessableEntity
	case errors.As(err, &fixpoint):
		return "fixpoint_diverged", http.StatusUnprocessableEntity
	case errors.As(err, &fetch):
		return "sources_unavailable", http.StatusServiceUnavailable
	case errors.As(err, &unroutable):
		return "unroutable_functor", http.StatusNotFound
	case errors.As(err, &fanout):
		return "shards_unavailable", http.StatusServiceUnavailable
	case errors.As(err, &notFound):
		return "not_found", http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return "canceled", http.StatusServiceUnavailable
	default:
		return "internal", http.StatusInternalServerError
	}
}

// writeJSON sends every document but the ask reply: indented, for
// the humans and the byte goldens that read /stats, /healthz,
// /functors, the admin replies and the error envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr sends the wire error envelope; every non-2xx reply goes
// through it.
func writeErr(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, wire.ErrorResponse{Error: wire.ErrorBody{Code: code, Message: message}})
}

// writeError is writeErr for an ask error, classified by ErrorCode.
func writeError(w http.ResponseWriter, err error) {
	code, status := ErrorCode(err)
	writeErr(w, status, code, err.Error())
}

// askBuf is one pooled ask reply buffer.
type askBuf struct {
	b []byte
	// keyed and render serve askReply: render appends the reply, plain or
	// keyed, into b. It is bound once per buffer; a method value made
	// per ask would allocate.
	keyed  bool
	render func(generation int64, answers []mediator.Answer) []byte
}

func (a *askBuf) appendReply(generation int64, answers []mediator.Answer) []byte {
	a.b = wire.AppendAskResponse(a.b[:0], generation, answers, a.keyed)
	return a.b
}

// askBufs pools the ask reply buffers. A buffer that grew past
// maxPooledAskBuf is dropped instead of returned, so one huge reply
// cannot pin its memory on every P for the life of the process.
var askBufs = sync.Pool{New: func() any {
	a := &askBuf{b: make([]byte, 0, 4<<10)}
	a.render = a.appendReply
	return a
}}

const maxPooledAskBuf = 64 << 10

func putAskBuf(a *askBuf) {
	if cap(a.b) <= maxPooledAskBuf {
		askBufs.Put(a)
	}
}

// sendAsk sends a finished ask reply in one Write with its
// Content-Length. The body is complete before the status line is, so
// the ask counts as served only once the client has it and as failed
// when the client went away mid-write.
func (s *Server) sendAsk(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.failed.Add(1)
	} else {
		s.served.Add(1)
	}
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var req wire.AskRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		req, err = wire.DecodeAskRequest(body)
	}
	if err != nil {
		s.failed.Add(1)
		writeErr(w, http.StatusBadRequest, "bad_request", "body must be JSON: "+err.Error())
		return
	}
	if req.Pattern == "" {
		s.failed.Add(1)
		writeErr(w, http.StatusBadRequest, "bad_request", `"pattern" is required`)
		return
	}
	q := r.URL.Query()
	if q.Get("explain") == "1" {
		s.explainAsk(w, r, q, req.Pattern, req.Functors)
		return
	}
	s.replyAsk(w, r, req, q.Get("keys") == "1")
}

// askReply asks med and returns its reply, which a renders into its
// pooled buffer: through AskReply when med renders its replies itself,
// else from the answers of AskContext, under the generation med
// reports. A memoized reply is the asker's own copy, written and never
// pooled.
func askReply(ctx context.Context, med mediator.Asker, pattern string, functors []string, a *askBuf) ([]byte, error) {
	if rp, ok := med.(replier); ok {
		return rp.AskReply(ctx, pattern, functors, a.keyed, a.render)
	}
	answers, err := med.AskContext(ctx, pattern, functors...)
	if err != nil {
		return nil, err
	}
	return a.render(generationOf(med), answers), nil
}

// replyAsk serves a plain ask through the next lane. The buffer goes
// back to the pool once the reply is sent. A reply under the server's
// write epoch carries it as its ETag, and an ask whose If-None-Match
// names that epoch is answered 304 with no body (the wire package's
// conditional /ask), and counts as served.
func (s *Server) replyAsk(w http.ResponseWriter, r *http.Request, req wire.AskRequest, keyed bool) {
	tags, leased := s.stamp(r.Header)
	a := askBufs.Get().(*askBuf)
	a.keyed = keyed
	body, err := askReply(r.Context(), s.lane(), req.Pattern, req.Functors, a)
	if s.tagAfterReply {
		tags, leased = s.stamp(r.Header)
	}
	switch {
	case err != nil:
		s.failed.Add(1)
		writeError(w, err)
	case tags == nil:
		s.sendAsk(w, body)
	default:
		h := w.Header()
		h["Etag"] = tags.etag
		if leased {
			h[wire.LeaseHeader] = tags.lease
		}
		if v := r.Header["If-None-Match"]; len(v) == 1 && v[0] == tags.etag[0] {
			w.WriteHeader(http.StatusNotModified)
			s.served.Add(1)
		} else {
			s.sendAsk(w, body)
		}
	}
	putAskBuf(a)
}

// epochTags is a write epoch as replies carry it: LeaseHeader's value,
// and the entity tag, quoted. Every reply under the epoch shares them.
type epochTags struct{ lease, etag []string }

// stamp reads the write epoch an ask's reply is under, and grants the
// ask a read lease (the wire package's lease contract) when it requests
// one. tags is nil when the server holds no epoch and while a write is
// pending: the reply is then neither tagged nor leased, and a
// conditional ask is answered in full. The epoch is read before the
// reply is computed, so the reply is of that epoch's data or newer, and
// a newer reply is never confirmed: by the next ask the write that made
// it has moved the epoch on. No lease is granted within LeaseTTL of the
// last write either, so a server written more often than a lease lasts
// grants none and its writes never wait for one.
func (s *Server) stamp(h http.Header) (tags *epochTags, leased bool) {
	if !s.grants || s.pending.Load() != 0 && !s.tagWhilePending {
		return nil, false
	}
	if v := h[wire.LeaseRequestHeader]; len(v) == 1 && v[0] == "1" && time.Since(s.start) >= time.Duration(s.quietUntil.Load()) {
		until := int64(time.Since(s.start) + wire.LeaseTTL)
		for held := s.leaseUntil.Load(); held < until && !s.leaseUntil.CompareAndSwap(held, until); {
			held = s.leaseUntil.Load()
		}
		// A write counts itself pending before it loads leaseUntil, and this
		// ask stored leaseUntil before it loads pending: of the two, at least
		// one sees the other, so either the write waits for this lease or no
		// lease is granted.
		leased = s.pending.Load() == 0
	}
	return s.epoch.Load(), leased
}

// write applies one write — a reload or a source refresh — under admin.
// From the moment it is called, before it queues on admin, no lease is
// granted; it waits until every lease granted has expired, applies, and
// the epoch moves on, whether or not apply failed. If ctx ends while it
// waits, write applies nothing and returns ctx's error. A server no
// client asked for a lease never waits, and a write queued behind
// another waits for no lease granted after it.
func (s *Server) write(ctx context.Context, apply func() error) error {
	s.pending.Add(1)
	defer s.pending.Add(-1)
	s.admin.Lock()
	defer s.admin.Unlock()
	for waited := false; !s.skipLeaseWait; waited = true {
		wait := time.Duration(s.leaseUntil.Load()) - time.Since(s.start)
		if wait <= 0 {
			break
		}
		if !waited {
			s.leaseWaits.Add(1)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
	err := apply()
	s.writes++
	s.publishEpoch()
	s.quietUntil.Store(int64(time.Since(s.start) + wire.LeaseTTL))
	return err
}

// publishEpoch renders the write epoch for the replies under it.
func (s *Server) publishEpoch() {
	e := string(wire.AppendEpoch(nil, wire.Epoch{Boot: s.boot, Writes: s.writes}))
	s.epoch.Store(&epochTags{lease: []string{e}, etag: []string{`"` + e + `"`}})
}

// explainAsk serves one ask under a request-scoped profile: the ask
// takes a plain ask's path — the next lane, its memo, its demand cache,
// the data it pinned — with the profile in its context, so the profile
// shows what the ask cost there, and this server's layers only. The
// reply is the plain reply, answers and generation as the lane rendered
// them, with the profile added; it is not tagged, and no memo keeps it.
func (s *Server) explainAsk(w http.ResponseWriter, r *http.Request, q url.Values, pattern string, functors []string) {
	profile := trace.NewProfile()
	a := askBufs.Get().(*askBuf)
	a.keyed = q.Get("keys") == "1"
	body, err := askReply(trace.WithSink(r.Context(), profile), s.lane(), pattern, functors, a)
	var doc []byte
	if err == nil {
		doc, err = json.Marshal(profile.Document(q.Get("timing") == "1"))
	}
	if err != nil {
		s.failed.Add(1)
		writeError(w, err)
	} else {
		s.sendAsk(w, wire.AppendProfile(nil, body, doc))
	}
	putAskBuf(a)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	q := r.URL.Query()
	pattern := q.Get("pattern")
	if pattern == "" {
		s.failed.Add(1)
		writeErr(w, http.StatusBadRequest, "bad_request", `"pattern" query parameter is required`)
		return
	}
	var functors []string
	for _, f := range strings.Split(q.Get("functors"), ",") {
		if f = strings.TrimSpace(f); f != "" {
			functors = append(functors, f)
		}
	}
	s.explainAsk(w, r, q, pattern, functors)
}

func (s *Server) handleFunctors(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	med := s.lane()
	fs, err := med.Functors()
	if err != nil {
		s.failed.Add(1)
		writeError(w, err)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, wire.FunctorsResponse{
		Functors:   fs,
		Generation: generationOf(med),
	})
}

// poolStats is the one fold over the served askers; /stats and /healthz
// both project it, so they cannot disagree about a source or a shard.
func (s *Server) poolStats() mediator.Stats {
	views := make([]mediator.Stats, len(s.pool))
	for i, m := range s.pool {
		views[i] = m.Stats()
	}
	return mediator.Aggregate(views...)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	timing := r.URL.Query().Get("timing") != "0"
	med := s.poolStats()
	srv := wire.ServerStats{
		Pool:       len(s.pool),
		Inflight:   s.inflight.Load(),
		Served:     s.served.Load(),
		Failed:     s.failed.Load(),
		Reloads:    s.reloads.Load(),
		LeaseWaits: s.leaseWaits.Load(),
	}
	if timing {
		srv.UptimeMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	} else {
		med = med.Untimed()
	}
	srv.Snapshot = s.snapshotStatus()
	writeJSON(w, http.StatusOK, wire.StatsResponse{Mediator: med, Server: srv})
}

// worsen folds one tier's health (sources, then shards) into the
// service status: all of a tier failing fails the service, some of it
// degrades it — partial answers are the point of degrading per source
// and of the scatter-gather's fault isolation.
func worsen(status string, failing, n int) string {
	switch {
	case failing == 0 || status == "failing":
		return status
	case failing == n:
		return "failing"
	}
	return "degraded"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.poolStats()
	var sources []wire.SourceHealth
	failing := 0
	for _, src := range st.Sources {
		h := wire.SourceHealth{Name: src.Name, Healthy: src.FetchErr == "", FetchErr: src.FetchErr,
			Breaker: src.BreakerState, Entries: src.Entries}
		if !h.Healthy {
			failing++
		}
		sources = append(sources, h)
	}
	status := worsen("ok", failing, len(sources))
	var shards []wire.ShardHealth
	failing = 0
	for _, sh := range st.Shards {
		if !sh.Healthy {
			failing++
		}
		shards = append(shards, wire.ShardHealth{Name: sh.Name, Healthy: sh.Healthy, Breaker: sh.Breaker, LastErr: sh.LastErr})
	}
	status = worsen(status, failing, len(shards))
	code := http.StatusOK
	if status == "failing" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, wire.HealthResponse{
		Generation: st.Generation,
		Program:    s.progName(),
		Sources:    sources,
		Status:     status,
		Shards:     shards,
		Snapshot:   s.snapshotStatus(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	prog, err := yatl.Parse(string(body))
	if err != nil {
		writeError(w, err)
		return
	}
	// An empty body parses to an empty program; swapping that in would
	// silently wipe the served target.
	if len(prog.Rules) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "program has no rules")
		return
	}
	if err := engine.Check(prog); err != nil {
		writeError(w, err)
		return
	}
	reloaders, ok := lanesAs[reloader](s.pool)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "reload_unsupported",
			"the served askers do not support hot reload (remote or federated)")
		return
	}
	var gen int64
	if err := s.write(r.Context(), func() error {
		for _, rl := range reloaders {
			rl.Reload(prog)
		}
		gen = generationOf(s.pool[0])
		return nil
	}); err != nil {
		writeError(w, err)
		return
	}
	s.reloads.Add(1)
	s.cfg.Logf("yatserve: reloaded program %q (%d rules), generation %d",
		prog.Name, len(prog.Rules), gen)
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"program":    prog.Name,
		"rules":      len(prog.Rules),
	})
}

// handleRefreshSource refreshes the named source on the mediator (on
// every configured asker, in order, stopping at the first that fails).
// A source that is down fails its refresh (503 sources_unavailable) and
// a warm mediator keeps serving the complete answers of the snapshot it
// pinned, /healthz reporting the failed fetch.
func (s *Server) handleRefreshSource(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	known := false
	for _, src := range s.cfg.Sources {
		if src.Name() == name {
			known = true
			break
		}
	}
	if !known {
		writeErr(w, http.StatusNotFound, "unknown_source", fmt.Sprintf("no source named %q", name))
		return
	}
	refreshers, ok := lanesAs[refresher](s.pool)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "refresh_unsupported",
			"the served askers do not support source refresh (remote or federated)")
		return
	}
	err := s.write(r.Context(), func() error {
		for _, rf := range refreshers {
			if err := rf.RefreshSource(r.Context(), name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	s.cfg.Logf("yatserve: refreshed source %q", name)
	writeJSON(w, http.StatusOK, map[string]any{"refreshed": name})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapPath == "" {
		writeErr(w, http.StatusNotImplemented, "snapshot_unconfigured",
			"server was started without a snapshot directory")
		return
	}
	resp, err := s.writeSnapshot()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "snapshot_failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Connection hygiene, fixed rather than configurable: a client that
// connects and never finishes its request headers, or parks an idle
// keep-alive connection, gives its goroutine back after these long.
// idleTimeout outlasts the 90 s a Go client's default transport keeps
// an idle connection, so shard clients and load drivers hang up first
// and never race a server-side close with a POST. Neither bounds a
// request that is being served — body reads, the ask itself and the
// reply stay with the request context and the drain.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve runs the HTTP service on the listener until ctx is cancelled,
// then drains: in-flight asks get up to DrainTimeout to finish before
// the server gives up on them. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.cfg.Logf("yatserve: listening on %s (program %q)", ln.Addr(), s.progName())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("yatserve: draining %d in-flight asks (deadline %s)",
		s.inflight.Load(), s.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // Serve has returned http.ErrServerClosed
	if s.cfg.SnapshotOnDrain && s.snapPath != "" {
		// Persist the warm cache after the last ask finished, so the
		// snapshot covers everything this process learned.
		_, _ = s.writeSnapshot()
	}
	if err != nil {
		s.cfg.Logf("yatserve: drain incomplete: %v", err)
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	s.cfg.Logf("yatserve: drained, %d asks served (%d failed)",
		s.served.Load(), s.failed.Load())
	return nil
}

// ListenAndServe is Serve over a fresh TCP listener on addr.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
