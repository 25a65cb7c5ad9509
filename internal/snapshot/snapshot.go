// Package snapshot is the durable warm-start layer: a versioned,
// checksummed on-disk store for one mediator generation — the demand
// cache's functor groups (post-deref entries), each cached entry written
// once. What the mediator derives from those entries (the leaf-path
// indexes, the ask memo) is not stored.
//
// A snapshot is only ever served when it provably describes the exact
// computation the booting process would perform cold: the envelope
// carries the format version, a hash of the program text, and a hash
// of the result-affecting engine options (builtin registry surface
// included), and any mismatch — format, checksum, program, options,
// or a truncated write — deterministically falls back to a cold boot
// instead of answering from stale conversions. Writes go through a
// temp file in the target directory followed by an atomic rename, so
// a crash mid-write can never leave a loadable half-snapshot: the
// reader either sees the previous complete file or none at all.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"yat/internal/engine"
	"yat/internal/yatl"
)

// FormatVersion is the snapshot format this build writes and the only
// one it reads. Bump it whenever the payload schema or the semantics
// of any field change; old files then fall back to a cold boot. Format 3
// holds one record per cached functor group; formats 1 and 2 held one per
// rule.
const FormatVersion = 3

// Reason classifies why a snapshot was rejected. Every reason forces
// the same outcome — a cold boot — but the caller logs and reports
// which invariant failed.
type Reason string

const (
	// ReasonMissing: no snapshot file exists at the path.
	ReasonMissing Reason = "missing"
	// ReasonCorrupt: the file is not a parseable envelope — a
	// truncated write, stray bytes, or not JSON at all.
	ReasonCorrupt Reason = "corrupt"
	// ReasonChecksum: the payload bytes do not hash to the recorded
	// checksum.
	ReasonChecksum Reason = "checksum"
	// ReasonVersion: the envelope's format version is not the one this
	// build understands.
	ReasonVersion Reason = "version"
	// ReasonProgramHash: the snapshot was taken over different program
	// text.
	ReasonProgramHash Reason = "program_hash"
	// ReasonOptionsHash: the snapshot was taken under different
	// result-affecting engine options (registry surface included).
	ReasonOptionsHash Reason = "options_hash"
)

// LoadError reports a snapshot that could not be used, carrying the
// reason the caller falls back to a cold boot on.
type LoadError struct {
	Path   string
	Reason Reason
	Err    error
}

func (e *LoadError) Error() string {
	msg := fmt.Sprintf("snapshot: unusable (%s)", e.Reason)
	if e.Path != "" {
		msg = fmt.Sprintf("snapshot %s: unusable (%s)", e.Path, e.Reason)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *LoadError) Unwrap() error { return e.Err }

// Entry is one named output tree, in the display forms the wire layer
// already round-trips (tree.ParseName and tree.Parse are the inverses
// of Name.String and Node.String).
type Entry struct {
	Name string `json:"name"`
	Tree string `json:"tree"`
}

// Group is one cached functor group: every entry the functor mints,
// post-deref, each identity once. A group with no entries still appears
// here — "cached and empty" and "not cached" are different states.
type Group struct {
	Functor string  `json:"functor"`
	Entries []Entry `json:"entries"`
}

// Generation is the payload: one demand-mode materialization
// lifetime, serialized entirely through the tree layer's canonical
// display syntax so the restore re-parses to byte-identical values.
type Generation struct {
	// Groups lists the cached functor groups, sorted by functor for
	// byte-stable snapshots.
	Groups []Group `json:"groups"`
	// Degraded names sources that were failing during some cached
	// slice run (their recovery invalidates the generation).
	Degraded []string `json:"degraded,omitempty"`
	// Stats accumulates the engine work performed across slice runs.
	Stats engine.Stats `json:"stats"`
	// Runs counts engine slice executions.
	Runs int64 `json:"runs"`
}

// Snapshot is one complete snapshot: the integrity/identity envelope
// plus the generation payload.
type Snapshot struct {
	// Format is the payload schema version (FormatVersion).
	Format int `json:"format"`
	// ProgramHash identifies the exact program text the generation was
	// computed from (HashProgram).
	ProgramHash string `json:"program_hash"`
	// OptionsHash identifies the result-affecting engine options and
	// the builtin registry surface (HashOptions).
	OptionsHash string `json:"options_hash"`
	// Program is the program's display name, for logs only — identity
	// is ProgramHash.
	Program string `json:"program"`
	// Generation is the mediator generation number the snapshot was
	// taken at, for logs and stats only.
	Generation int64 `json:"generation"`
	// Payload is the generation itself.
	Payload *Generation `json:"-"`
}

// envelope is the on-disk shape, written compact: the payload rides as
// raw JSON and the checksum covers its bytes exactly as they sit in the
// file, so any payload tampering or torn write fails the hash.
type envelope struct {
	Format      int             `json:"format"`
	ProgramHash string          `json:"program_hash"`
	OptionsHash string          `json:"options_hash"`
	Program     string          `json:"program"`
	Generation  int64           `json:"generation"`
	Checksum    string          `json:"checksum"`
	Payload     json.RawMessage `json:"payload"`
}

func sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// HashProgram is the canonical hash of a program: sha256 over its
// concrete-syntax rendering, which covers the name, models, orders
// and every rule's text — exactly the inputs rule evaluation depends
// on.
func HashProgram(prog *yatl.Program) string {
	return sum([]byte(prog.String()))
}

// HashOptions is the canonical hash of the result-affecting engine
// options: the registry fingerprint (names and type signatures of
// every callable), the model environments, the fixpoint bound, the
// non-determinism policy, the output checker, and the safety
// toggle. Tracing is deliberately excluded — a sink observes a run
// without changing it — so a snapshot taken with tracing on restores
// without it, and the other way round.
func HashOptions(opts *engine.Options) string {
	if opts == nil {
		opts = &engine.Options{}
	}
	model := ""
	if opts.Model != nil {
		model = opts.Model.String()
	}
	check := ""
	if opts.CheckOutputs != nil {
		check = opts.CheckOutputs.String()
	}
	doc := fmt.Sprintf("registry=%s\nmodel=%s\ncheck_outputs=%s\nmax_rounds=%d\nnondet_warn=%t\ndisable_safety=%t\n",
		opts.Registry.Fingerprint(), model, check,
		opts.MaxRounds, opts.NonDetWarn, opts.DisableSafety)
	return sum([]byte(doc))
}

// Encode renders the snapshot as its on-disk bytes: payload
// marshaled, checksummed, and wrapped in the envelope.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Payload == nil {
		return nil, fmt.Errorf("snapshot: nil payload")
	}
	raw, err := json.Marshal(s.Payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot: marshaling payload: %w", err)
	}
	env := envelope{
		Format:      s.Format,
		ProgramHash: s.ProgramHash,
		OptionsHash: s.OptionsHash,
		Program:     s.Program,
		Generation:  s.Generation,
		Checksum:    sum(raw),
		Payload:     raw,
	}
	return json.Marshal(env)
}

// Write persists the snapshot at path atomically and returns the
// byte count written: the bytes go to a temp file in the same
// directory (same filesystem, so the rename is atomic), are synced,
// and the rename replaces any previous snapshot in one step. A crash
// at any point leaves either the old complete file or a stray temp
// file the next Read never looks at.
func Write(path string, s *Snapshot) (int, error) {
	data, err := s.Encode()
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file; the previous
	// snapshot (if any) is untouched.
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
	} else {
		tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("snapshot: writing %s: %w", path, err)
	}
	return len(data), nil
}

// Read loads and integrity-checks the snapshot at path. Identity
// (program/options hashes) is the caller's check — only the caller
// knows what it is about to serve; Verify does it. Every failure is a
// *LoadError whose Reason says which fallback-to-cold invariant fired.
func Read(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		reason := ReasonCorrupt
		if os.IsNotExist(err) {
			reason = ReasonMissing
		}
		return nil, &LoadError{Path: path, Reason: reason, Err: err}
	}
	s, err := Decode(data)
	var lerr *LoadError
	if errors.As(err, &lerr) {
		lerr.Path = path
	}
	return s, err
}

// Decode is Read past the file system: it parses and integrity-checks
// the bytes Encode produced. Whatever the bytes, a failure is a
// *LoadError (without a path).
func Decode(data []byte) (*Snapshot, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, &LoadError{Reason: ReasonCorrupt, Err: err}
	}
	if env.Format != FormatVersion {
		return nil, &LoadError{Reason: ReasonVersion,
			Err: fmt.Errorf("format %d, this build reads %d", env.Format, FormatVersion)}
	}
	if len(env.Payload) == 0 {
		return nil, &LoadError{Reason: ReasonCorrupt, Err: fmt.Errorf("empty payload")}
	}
	if got := sum(env.Payload); got != env.Checksum {
		return nil, &LoadError{Reason: ReasonChecksum,
			Err: fmt.Errorf("payload hashes to %.12s, envelope records %.12s", got, env.Checksum)}
	}
	var payload Generation
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return nil, &LoadError{Reason: ReasonCorrupt, Err: err}
	}
	return &Snapshot{
		Format:      env.Format,
		ProgramHash: env.ProgramHash,
		OptionsHash: env.OptionsHash,
		Program:     env.Program,
		Generation:  env.Generation,
		Payload:     &payload,
	}, nil
}

// Verify checks the snapshot's identity against the program and
// options the caller is about to serve. The returned *LoadError
// carries no path — the mediator does not know where the snapshot
// came from; callers that do (serve's boot path) log it alongside.
func (s *Snapshot) Verify(programHash, optionsHash string) error {
	if s.ProgramHash != programHash {
		return &LoadError{Reason: ReasonProgramHash,
			Err: fmt.Errorf("snapshot program %.12s, serving %.12s", s.ProgramHash, programHash)}
	}
	if s.OptionsHash != optionsHash {
		return &LoadError{Reason: ReasonOptionsHash,
			Err: fmt.Errorf("snapshot options %.12s, serving %.12s", s.OptionsHash, optionsHash)}
	}
	return nil
}
