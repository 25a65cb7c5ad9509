// Package wire defines the HTTP/JSON types of the yatserve protocol,
// shared by the server (internal/serve), the federation's remote
// shard client (internal/federate) and the load driver (cmd/yatload).
// One definition means the three can never drift; the JSON field
// names are part of the wire contract, pinned by the byte-stability
// test, and only ever grow. Neither end of an ask goes through
// reflection: AppendAskResponse (encode.go) renders the bytes of
// json.Marshal(AskResponse) straight from the answers, and
// DecodeAskResponse (decode.go), its inverse, scans a reply into typed
// answers that keep the producer's rendering, so a federation parent
// forwards its children's answers instead of rendering them again.
// AskResponse and AskAnswer remain the specification of both, held to
// json.Marshal and json.Unmarshal of the structs by differential and
// fuzz tests, and the form every other client decodes.
//
// An /ask may be conditional. A server that holds a write epoch
// (Epoch, lease.go) stamps every 200 ask reply with an ETag: the epoch
// as AppendEpoch writes it, quoted. It reads the epoch with no write
// pending, before it computes the reply, so the reply is that epoch's
// data or newer, and newer data is never confirmed under it. A client
// that holds a reply sends its tag back in If-None-Match; when the ask
// succeeds and the server, with no write pending, is still at that
// epoch, it answers 304 Not Modified with the tag in ETag and no body,
// and the 304 stands for the bytes the client holds. Any other
// If-None-Match — a stale epoch, another incarnation's, the zero epoch,
// a weak tag, a list, "*", an unquoted or malformed tag — gets the
// full 200 reply, byte for byte the unconditional ask's; an error is
// never a 304, and ?explain=1 ignores the header. A server without an
// epoch — one over a federation or over askers built elsewhere — sends
// no ETag and answers every ask in full. RFC 9110 §13.1.2 would have a
// POST answer a matching If-None-Match with 412, but /ask is a safe
// read that carries its query in the body: a match says the client's
// copy is current, which is what 304 says for a GET. An /ask may also
// request a read lease (LeaseRequestHeader, lease.go), under the same
// epoch.
package wire

import (
	"encoding/json"

	"yat/internal/mediator"
)

// AskRequest is the POST /ask body.
type AskRequest struct {
	// Pattern is the query, in YATL concrete pattern syntax.
	Pattern string `json:"pattern"`
	// Functors optionally restricts the ask to these Skolem functors
	// (a demand-driven mediator then materializes only their slices).
	Functors []string `json:"functors,omitempty"`
}

// AskAnswer is one answer on the wire.
type AskAnswer struct {
	// Name is the Skolem identity of the matched target object.
	Name string `json:"name"`
	// Binding maps each pattern variable to its value's display form.
	Binding map[string]string `json:"binding,omitempty"`
	// Key is the producer-computed canonical merge key
	// (mediator.Answer.MergeKey), present only when the request asked
	// for it (?keys=1). The federation's shard client always asks: the
	// parent merges shard streams by this key, so the global order is
	// the child's exact order even if a display form fails to
	// round-trip.
	Key string `json:"key,omitempty"`
}

// AskResponse is the POST /ask (and GET /explain) response.
type AskResponse struct {
	Generation int64       `json:"generation"`
	Count      int         `json:"count"`
	Answers    []AskAnswer `json:"answers"`
	// Profile is the request-scoped EXPLAIN profile, present only when
	// the request asked for it (?explain=1, or GET /explain).
	Profile json.RawMessage `json:"profile,omitempty"`
}

// ErrorBody is the error payload inside an ErrorResponse.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the envelope of every non-2xx JSON response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// FunctorsResponse is the GET /functors response. Field order matches
// the historical document (keys were alphabetical when it was built
// from a map).
type FunctorsResponse struct {
	Functors   []string `json:"functors"`
	Generation int64    `json:"generation"`
}

// ServerStats is the server's own half of GET /stats; the mediator
// half is mediator.Stats itself.
type ServerStats struct {
	Pool     int   `json:"pool"`
	Inflight int64 `json:"inflight"`
	Served   int64 `json:"served"`
	Failed   int64 `json:"failed"`
	Reloads  int64 `json:"reloads"`
	// LeaseWaits counts the writes — reloads and source refreshes —
	// that waited for a federation parent's read lease to run out.
	LeaseWaits int64   `json:"lease_waits"`
	UptimeMS   float64 `json:"uptime_ms,omitempty"`
	// Snapshot rides at the end, omitted when no snapshot directory is
	// configured, so historical documents are byte-identical.
	Snapshot *SnapshotStatus `json:"snapshot,omitempty"`
}

// SnapshotStatus is the durable warm-start status, present in GET
// /stats and GET /healthz only when the server was configured with a
// snapshot directory.
type SnapshotStatus struct {
	// Path is the snapshot file the server restores from and writes to.
	Path string `json:"path"`
	// Restored reports whether this process warm-started its mediator from
	// the file at boot.
	Restored bool `json:"restored"`
	// FallbackReason classifies why a boot fell back to cold when it
	// did (snapshot.Reason: missing, corrupt, checksum, version,
	// program_hash, options_hash).
	FallbackReason string `json:"fallback_reason,omitempty"`
	// Saves counts successful snapshot writes by this process (drain
	// and POST /admin/snapshot).
	Saves int64 `json:"saves"`
	// LastSaveErr is the most recent failed write's error, cleared by
	// the next successful write.
	LastSaveErr string `json:"last_save_err,omitempty"`
}

// SnapshotResponse is the POST /admin/snapshot response.
type SnapshotResponse struct {
	Path       string `json:"path"`
	Generation int64  `json:"generation"`
	Bytes      int    `json:"bytes"`
}

// StatsResponse is the GET /stats document. Mediator precedes Server
// to preserve the historical (alphabetical) key order byte-for-byte.
type StatsResponse struct {
	Mediator mediator.Stats `json:"mediator"`
	Server   ServerStats    `json:"server"`
}

// SourceHealth is one source's entry in GET /healthz.
type SourceHealth struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	FetchErr string `json:"fetch_err,omitempty"`
	Breaker  string `json:"breaker,omitempty"`
	Entries  int    `json:"entries"`
}

// ShardHealth is one federation child's entry in GET /healthz,
// present only when the server fronts a federation.
type ShardHealth struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker,omitempty"`
	LastErr string `json:"last_err,omitempty"`
}

// HealthResponse is the GET /healthz document. Field order preserves
// the historical (alphabetical) key order; Shards rides at the end,
// omitted for non-federated servers so old documents are unchanged.
type HealthResponse struct {
	Generation int64          `json:"generation"`
	Program    string         `json:"program"`
	Sources    []SourceHealth `json:"sources"`
	Status     string         `json:"status"`
	Shards     []ShardHealth  `json:"shards,omitempty"`
	// Snapshot rides at the end, omitted when no snapshot directory is
	// configured, so historical documents are byte-identical.
	Snapshot *SnapshotStatus `json:"snapshot,omitempty"`
}
