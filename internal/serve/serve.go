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
// strictly request-scoped — the served mediator runs with a nil trace
// sink (the zero-overhead guarantee), while /ask?explain=1 and
// /explain build a fresh profile, and a fresh mediator under it, for
// that one request.
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
	// (it still feeds /explain and the healthz program name when given).
	Askers []mediator.Asker
	// Prog is the conversion program to serve. Required unless Askers
	// is set.
	Prog *yatl.Program
	// Inputs is the pre-materialized input store (may be nil when
	// Sources feed the mediators instead).
	Inputs *tree.Store
	// Sources are fault-tolerant live sources feeding the mediator.
	Sources []source.Source
	// Options are engine options applied to the mediator (registry,
	// model, ...). Trace sinks are rejected: tracing is
	// request-scoped, the served mediator always runs with a nil sink.
	Options []engine.Option
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

	admin sync.Mutex // serializes reload/refresh across the askers

	// Durable warm-start state; snapPath is empty when disabled.
	snapPath     string
	snapMu       sync.Mutex // serializes writes; guards the fields below
	snapRestored bool
	snapFallback string
	snapSaves    int64
	snapSaveErr  string

	inflight atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64
	reloads  atomic.Int64
	start    time.Time
}

// New builds a Server over one demand-driven mediator (or the
// configured askers). It fails fast on a nil program or a traced option
// set instead of surprising the first request.
func New(cfg Config) (*Server, error) {
	if cfg.Prog == nil && len(cfg.Askers) == 0 {
		return nil, errors.New("serve: Config.Prog or Config.Askers is required")
	}
	if engine.NewOptions(cfg.Options...).Trace != nil {
		return nil, errors.New("serve: tracing is request-scoped; do not configure a pool-wide sink")
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
		s.pool = []mediator.Asker{mediator.New(cfg.Prog, cfg.Inputs, s.laneOptions(nil)...)}
	}
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

// laneOptions assembles a mediator's option list: the configured
// engine options, demand-driven evaluation (what every served mediator
// runs), the sources, and (for request-scoped tracing only) a sink.
func (s *Server) laneOptions(sink trace.Sink) []engine.Option {
	opts := append([]engine.Option(nil), s.cfg.Options...)
	opts = append(opts, mediator.WithDemandDriven(true))
	if len(s.cfg.Sources) > 0 {
		opts = append(opts, mediator.WithSources(s.cfg.Sources...))
	}
	if sink != nil {
		opts = append(opts, engine.WithTrace(sink))
	}
	return opts
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

// program is the currently served program (construction or the most
// recent successful reload). Askers that cannot report one — remote
// clients — fall back to the configured program, which may be nil.
func (s *Server) program() *yatl.Program {
	if p, ok := s.pool[0].(programmer); ok {
		if prog := p.Program(); prog != nil {
			return prog
		}
	}
	return s.cfg.Prog
}

// progName is the served program's display name, tolerating opaque
// askers.
func (s *Server) progName() string {
	if p := s.program(); p != nil {
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

// askBufs pools the ask reply buffers. A buffer that grew past
// maxPooledAskBuf is dropped instead of returned, so one huge reply
// cannot pin its memory on every P for the life of the process.
var askBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const maxPooledAskBuf = 64 << 10

// writeAsk is the ask path's one encode-and-send: /ask, /ask?explain=1
// and GET /explain all reply through it. wire.AppendAskResponse
// renders the answers compact into a pooled buffer, and the finished
// body goes out in one Write with its Content-Length. The body is
// complete before the status line is, so the ask counts as served only
// once the client has it and as failed when the client went away
// mid-write.
func (s *Server) writeAsk(w http.ResponseWriter, generation int64, answers []mediator.Answer, keyed bool, profile json.RawMessage) {
	bp := askBufs.Get().(*[]byte)
	body := wire.AppendAskResponse((*bp)[:0], generation, answers, keyed, profile)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.failed.Add(1)
	} else {
		s.served.Add(1)
	}
	if cap(body) <= maxPooledAskBuf {
		*bp = body
		askBufs.Put(bp)
	}
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	var req wire.AskRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
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
	med := s.lane()
	answers, err := med.AskContext(r.Context(), req.Pattern, req.Functors...)
	if err != nil {
		s.failed.Add(1)
		writeError(w, err)
		return
	}
	s.writeAsk(w, generationOf(med), answers, q.Get("keys") == "1", nil)
}

// explainAsk serves one ask under a request-scoped profile: a fresh
// mediator over the current program with its own trace.Profile, so
// the EXPLAIN covers exactly this request (cold, slices and cache
// decisions visible) and the served nil-sink mediator stays untouched.
func (s *Server) explainAsk(w http.ResponseWriter, r *http.Request, q url.Values, pattern string, functors []string) {
	prog := s.program()
	if prog == nil {
		// Askers-only servers over remote askers have no local program to
		// re-run under a profile.
		s.failed.Add(1)
		writeErr(w, http.StatusNotImplemented, "explain_unavailable",
			"EXPLAIN needs a local program; this server fronts opaque askers")
		return
	}
	profile := trace.NewProfile()
	med := mediator.New(prog, s.cfg.Inputs, s.laneOptions(profile)...)
	answers, err := med.AskContext(r.Context(), pattern, functors...)
	if err != nil {
		s.failed.Add(1)
		writeError(w, err)
		return
	}
	data, err := json.Marshal(profile.Document(q.Get("timing") == "1"))
	if err != nil {
		s.failed.Add(1)
		writeError(w, err)
		return
	}
	s.writeAsk(w, med.Generation(), answers, q.Get("keys") == "1", data)
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
		Pool:     len(s.pool),
		Inflight: s.inflight.Load(),
		Served:   s.served.Load(),
		Failed:   s.failed.Load(),
		Reloads:  s.reloads.Load(),
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
	if err := engine.CheckSafety(prog); err != nil {
		writeError(w, err)
		return
	}
	reloaders, ok := lanesAs[reloader](s.pool)
	if !ok {
		writeErr(w, http.StatusNotImplemented, "reload_unsupported",
			"the served askers do not support hot reload (remote or federated)")
		return
	}
	s.admin.Lock()
	for _, rl := range reloaders {
		rl.Reload(prog)
	}
	gen := generationOf(s.pool[0])
	s.admin.Unlock()
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
	s.admin.Lock()
	defer s.admin.Unlock()
	for _, rf := range refreshers {
		if err := rf.RefreshSource(r.Context(), name); err != nil {
			writeError(w, err)
			return
		}
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
