// Package trace is the engine's structured observability layer: the
// run loop emits typed events per phase per rule (§3.1's five phases,
// plus fixpoint round boundaries and run start/end), and any consumer
// implementing Sink can attach to a run through engine.Options.Trace.
//
// The package defines one ready-made sink, Profile, which aggregates
// the event stream into per-rule/per-phase counts and wall times and
// renders them as an EXPLAIN-style table (text or JSON). Counts are
// order-independent, so a Profile reports identical numbers for
// identical runs, whatever else shares it; only wall times vary.
//
// The contract with the engine is strict in both directions:
//
//   - Disabled is free. With a nil sink the engine performs no event
//     construction, no time.Now() calls and no allocations on behalf
//     of tracing — the hot path is byte-for-byte the pre-trace code.
//   - Enabled is concurrent. A sink shared by concurrent runs (a
//     mediator's asks) receives their events from several goroutines;
//     a Sink must be safe for concurrent use. Event *order* across
//     runs is schedule-dependent, event *counts* per (rule, phase,
//     kind) are deterministic.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase identifies one of the five evaluation phases of §3.1, plus a
// pseudo-phase for run/round structure events.
type Phase int

const (
	// PhaseRun groups run- and round-level events (no rule attached).
	PhaseRun Phase = iota
	// PhaseMatch is phase 1: pattern matching of inputs against rule
	// bodies.
	PhaseMatch
	// PhaseFunctions is phase 2: external function application with
	// the type filter.
	PhaseFunctions
	// PhasePredicates is phase 3: predicate filtering.
	PhasePredicates
	// PhaseSkolem is phase 4: head Skolem evaluation and grouping.
	PhaseSkolem
	// PhaseConstruct is phase 5: output tree construction.
	PhaseConstruct
	// PhaseSlice groups demand-driven events: slice computations and
	// per-rule cache decisions of the mediator's query pushdown.
	PhaseSlice
	// PhaseSource groups source-layer events: wrapper fetches, retry
	// attempts and breaker trips of the mediator's fault-tolerant
	// source layer.
	PhaseSource
	// PhaseFederate groups federation events: per-shard scatter calls,
	// degraded children and §4 compose fusions of the federation
	// planner.
	PhaseFederate

	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseRun:
		return "run"
	case PhaseMatch:
		return "match"
	case PhaseFunctions:
		return "functions"
	case PhasePredicates:
		return "predicates"
	case PhaseSkolem:
		return "skolem"
	case PhaseConstruct:
		return "construct"
	case PhaseSlice:
		return "slice"
	case PhaseSource:
		return "source"
	case PhaseFederate:
		return "federate"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// MarshalText names the phase in the EXPLAIN document.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// Kind classifies an event.
type Kind int

const (
	// KindRunStart opens a run. Detail holds the program name.
	KindRunStart Kind = iota
	// KindRunEnd closes a run; Duration is total wall time.
	KindRunEnd
	// KindRound marks the start of one activation-fixpoint round;
	// Round is 1-based and Count is the number of pending activations.
	KindRound
	// KindMatch records one (rule, activation) matching attempt;
	// Count is the number of bindings produced (0 means the rule did
	// not fire on this input).
	KindMatch
	// KindCall records one external function invocation (let or
	// predicate call); Detail is the function name and Duration its
	// wall time. Count is 1 when the call succeeded past the type
	// filter, 0 when the filter rejected it.
	KindCall
	// KindBindingKept records a binding that survived phases 2–3.
	KindBindingKept
	// KindBindingDropped records a binding dropped during phases 2–5;
	// Detail is the machine-readable reason.
	KindBindingDropped
	// KindSkolemDefined records one distinct head Skolem identity;
	// Detail is the identity display form.
	KindSkolemDefined
	// KindConstruct records the construction of one output tree.
	KindConstruct
	// KindSliceComputed records one demand-driven slice evaluation
	// (engine.RunSlice); Count is the number of rules in the slice and
	// Detail its rendering (requested functors, construct/support
	// split).
	KindSliceComputed
	// KindCacheHit records a rule whose materialized outputs were
	// served from the mediator's per-rule memo; Rule names it.
	KindCacheHit
	// KindCacheMiss records a rule that had to be (re)materialized
	// for a query; Rule names it.
	KindCacheMiss
	// KindSourceFetch records one source fetch attempt by the
	// mediator; Detail is the source name, Count is 1 on success and 0
	// on failure, Duration the fetch wall time.
	KindSourceFetch
	// KindSourceRetry records a retry re-attempt against a source;
	// Detail is the source name, Count the 1-based attempt number.
	KindSourceRetry
	// KindBreakerOpen records a circuit breaker tripping open; Detail
	// is the source name, Count the consecutive-failure count.
	KindBreakerOpen
	// KindDeltaApplied records a source refresh absorbed by delta
	// propagation (the cache was patched in place, or the delta was
	// empty or touched no cached rule); Detail carries the source name
	// and inserted/deleted/changed/patched-rule counts, Count the
	// number of patched rules.
	KindDeltaApplied
	// KindDeltaFallback records a source refresh that could not be
	// patched and fell back to a slice re-run or wholesale
	// invalidation; Detail carries the source name and the machine-
	// readable fallback reason, Count the number of re-run rules whose
	// outputs actually changed.
	KindDeltaFallback
	// KindShardAsk records one scatter call into a federation child;
	// Detail is the shard name, Count the number of answers it
	// returned, Duration the call's wall time.
	KindShardAsk
	// KindShardDegraded records a scatter call the federation absorbed
	// as a partial result: the child failed after its guard chain gave
	// up. Detail carries the shard name and the error.
	KindShardDegraded
	// KindComposeFused records the federation planner fusing a
	// cross-mediator pipeline stage with §4.3 composition; Detail
	// names the two programs and the fused rule count, Count the fused
	// rules. Its presence (and the absence of any intermediate-model
	// materialization) is how tests assert the intermediate model
	// never existed.
	KindComposeFused
)

func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindRunEnd:
		return "run-end"
	case KindRound:
		return "round"
	case KindMatch:
		return "match"
	case KindCall:
		return "call"
	case KindBindingKept:
		return "binding-kept"
	case KindBindingDropped:
		return "binding-dropped"
	case KindSkolemDefined:
		return "skolem-defined"
	case KindConstruct:
		return "construct"
	case KindSliceComputed:
		return "slice"
	case KindCacheHit:
		return "cache-hit"
	case KindCacheMiss:
		return "cache-miss"
	case KindSourceFetch:
		return "source-fetch"
	case KindSourceRetry:
		return "source-retry"
	case KindBreakerOpen:
		return "breaker-open"
	case KindDeltaApplied:
		return "delta-applied"
	case KindDeltaFallback:
		return "delta-fallback"
	case KindShardAsk:
		return "shard-ask"
	case KindShardDegraded:
		return "shard-degraded"
	case KindComposeFused:
		return "compose-fused"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Drop reasons carried by KindBindingDropped events (Event.Detail).
const (
	DropUnresolvedOperand = "unresolved-operand"
	DropTypeFilter        = "type-filter"
	DropFunctionError     = "function-error"
	DropPredicateFalse    = "predicate-false"
	DropPredicateError    = "predicate-error"
	DropSkolemError       = "skolem-error"
	DropNonDeterminism    = "non-determinism"
)

// Event is one observation from the engine. It is passed by value and
// never retained by the engine, so sinks may keep or discard it
// freely.
type Event struct {
	Kind     Kind
	Phase    Phase
	Rule     string // empty for run/round events
	Round    int    // 1-based fixpoint round, when known
	Count    int    // kind-specific cardinality (bindings, pending, …)
	Detail   string // function name, drop reason, identity, …
	Duration time.Duration
}

// Sink consumes engine events. Implementations must be safe for
// concurrent use: concurrent runs may share one sink.
type Sink interface {
	Emit(Event)
}

// PhaseProfile aggregates one rule's activity inside one phase: one
// row of the EXPLAIN document.
type PhaseProfile struct {
	// Phase names the row; set by the phase's first event.
	Phase Phase `json:"phase"`
	// Events is the number of events attributed to the phase.
	Events int `json:"events"`
	// Items sums the event counts: bindings matched (match), calls
	// passing the type filter (functions), bindings kept
	// (predicates), bindings grouped (skolem), outputs built
	// (construct).
	Items int `json:"items"`
	// Wall is the accumulated wall time attributed to the phase.
	Wall time.Duration `json:"wall_ns,omitempty"`
}

// PhaseTable holds one rule's phase rows, indexed by Phase. It
// marshals as the rows EXPLAIN shows: the §3.1 phases that saw events,
// in order.
type PhaseTable [numPhases]PhaseProfile

// dataPhases are the phases shown in the EXPLAIN table, in §3.1 order.
var dataPhases = [...]Phase{PhaseMatch, PhaseFunctions, PhasePredicates, PhaseSkolem, PhaseConstruct}

// rows returns the table's EXPLAIN rows, nil when it has none.
func (t *PhaseTable) rows() []PhaseProfile {
	var rows []PhaseProfile
	for _, ph := range dataPhases {
		if t[ph].Events > 0 {
			rows = append(rows, t[ph])
		}
	}
	return rows
}

// MarshalJSON implements json.Marshaler.
func (t PhaseTable) MarshalJSON() ([]byte, error) { return json.Marshal(t.rows()) }

// RuleProfile aggregates one rule across all phases. Field order is
// the EXPLAIN document's key order.
type RuleProfile struct {
	Rule string `json:"rule"`
	// Fired is the number of (activation, rule) attempts that
	// produced at least one binding.
	Fired int `json:"fired"`
	// Kept is the number of bindings surviving phases 2–3.
	Kept int `json:"kept"`
	// Skolems is the number of distinct head identities defined.
	Skolems int `json:"skolems"`
	// Outputs is the number of output trees constructed.
	Outputs int `json:"outputs"`
	// Phases indexes PhaseMatch … PhaseConstruct.
	Phases PhaseTable `json:"phases"`
	// Calls counts external function invocations by function name.
	Calls map[string]int `json:"calls,omitempty"`
	// Drops counts dropped bindings by reason.
	Drops map[string]int `json:"drops,omitempty"`
	// CacheHits and CacheMisses count the mediator's per-rule memo
	// decisions for this rule (demand-driven queries only).
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`
}

// ShardProfile aggregates a federation's scatter calls into one named
// child: asks with degraded outcomes and the answers gathered.
type ShardProfile struct {
	Shard    string        `json:"shard"`
	Asks     int           `json:"asks"`
	Degraded int           `json:"degraded"`
	Answers  int           `json:"answers"`
	Wall     time.Duration `json:"wall_ns,omitempty"`
}

// SourceProfile aggregates the source-layer activity of one named
// source: fetches with failures, retry re-attempts and breaker trips.
type SourceProfile struct {
	Source       string        `json:"source"`
	Fetches      int           `json:"fetches"`
	Failures     int           `json:"failures"`
	Retries      int           `json:"retries"`
	BreakerOpens int           `json:"breaker_opens"`
	Wall         time.Duration `json:"wall_ns,omitempty"`
}

// Document is one consistent reading of a Profile — the EXPLAIN
// document. Render prints it and JSON marshals it; field order is key
// order.
type Document struct {
	// Program is the name the run announced ("" before it starts).
	Program string `json:"program"`
	// Rounds counts the fixpoint rounds, RoundPending the activations
	// pending at the start of each.
	Rounds       int   `json:"rounds"`
	RoundPending []int `json:"round_pending,omitempty"`
	// Events is the total number of events received.
	Events int `json:"events"`
	// Wall is the run's wall time (zero until KindRunEnd).
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Slices counts demand-driven slice evaluations; SliceRules sums
	// the rules they ran.
	Slices     int `json:"slices,omitempty"`
	SliceRules int `json:"slice_rules,omitempty"`
	// DeltaApplied and DeltaFallbacks count incremental-refresh
	// outcomes; Deltas holds their Detail strings in arrival order.
	DeltaApplied   int      `json:"delta_applied,omitempty"`
	DeltaFallbacks int      `json:"delta_fallbacks,omitempty"`
	Deltas         []string `json:"deltas,omitempty"`
	// Fused holds the compose-fusion summaries in arrival order.
	Fused []string `json:"fused,omitempty"`
	// Shards, Sources and Rules are sorted by name.
	Shards  []ShardProfile  `json:"shards,omitempty"`
	Sources []SourceProfile `json:"sources,omitempty"`
	Rules   []RuleProfile   `json:"rules"`
}

// Profile is a Sink that aggregates the event stream into a
// per-rule/per-phase table. The zero value is not ready; use
// NewProfile.
type Profile struct {
	mu sync.Mutex
	// doc accumulates the document's scalar and list members; Shards,
	// Sources and Rules are filled per reading from the maps below.
	doc     Document
	rules   map[string]*RuleProfile
	sources map[string]*SourceProfile
	shards  map[string]*ShardProfile
}

// NewProfile returns an empty profile ready to attach to a run.
func NewProfile() *Profile {
	return &Profile{rules: map[string]*RuleProfile{}, sources: map[string]*SourceProfile{}}
}

// Emit implements Sink.
func (p *Profile) Emit(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doc.Events++
	switch e.Kind {
	case KindRunStart:
		p.doc.Program = e.Detail
		return
	case KindRunEnd:
		p.doc.Wall = e.Duration
		return
	case KindRound:
		p.doc.Rounds++
		p.doc.RoundPending = append(p.doc.RoundPending, e.Count)
		return
	case KindSliceComputed:
		p.doc.Slices++
		p.doc.SliceRules += e.Count
		return
	case KindDeltaApplied:
		p.doc.DeltaApplied++
		p.doc.Deltas = append(p.doc.Deltas, e.Detail)
		return
	case KindDeltaFallback:
		p.doc.DeltaFallbacks++
		p.doc.Deltas = append(p.doc.Deltas, e.Detail)
		return
	case KindSourceFetch:
		sp := p.source(e.Detail)
		sp.Fetches++
		if e.Count == 0 {
			sp.Failures++
		}
		sp.Wall += e.Duration
		return
	case KindSourceRetry:
		p.source(e.Detail).Retries++
		return
	case KindBreakerOpen:
		p.source(e.Detail).BreakerOpens++
		return
	case KindShardAsk:
		sh := p.shard(e.Detail)
		sh.Asks++
		sh.Answers += e.Count
		sh.Wall += e.Duration
		return
	case KindShardDegraded:
		// Detail is "shard: error"; attribute to the shard name.
		name := e.Detail
		if i := strings.Index(name, ":"); i >= 0 {
			name = name[:i]
		}
		p.shard(name).Degraded++
		return
	case KindComposeFused:
		p.doc.Fused = append(p.doc.Fused, e.Detail)
		return
	}
	r := p.rule(e.Rule)
	ph := &r.Phases[e.Phase]
	ph.Phase = e.Phase
	ph.Events++
	ph.Wall += e.Duration
	switch e.Kind {
	case KindMatch:
		if e.Count > 0 {
			r.Fired++
		}
		ph.Items += e.Count
	case KindCall:
		ph.Items += e.Count
		if r.Calls == nil {
			r.Calls = map[string]int{}
		}
		r.Calls[e.Detail]++
	case KindBindingKept:
		r.Kept++
		ph.Items++
	case KindBindingDropped:
		if r.Drops == nil {
			r.Drops = map[string]int{}
		}
		r.Drops[e.Detail]++
	case KindSkolemDefined:
		r.Skolems += e.Count
		ph.Items += e.Count
	case KindConstruct:
		r.Outputs += e.Count
		ph.Items += e.Count
	case KindCacheHit:
		r.CacheHits++
		ph.Items++
	case KindCacheMiss:
		r.CacheMisses++
		ph.Items++
	}
}

func (p *Profile) shard(name string) *ShardProfile {
	if p.shards == nil {
		p.shards = map[string]*ShardProfile{}
	}
	s, ok := p.shards[name]
	if !ok {
		s = &ShardProfile{Shard: name}
		p.shards[name] = s
	}
	return s
}

func (p *Profile) source(name string) *SourceProfile {
	if p.sources == nil {
		p.sources = map[string]*SourceProfile{}
	}
	s, ok := p.sources[name]
	if !ok {
		s = &SourceProfile{Source: name}
		p.sources[name] = s
	}
	return s
}

func (p *Profile) rule(name string) *RuleProfile {
	r, ok := p.rules[name]
	if !ok {
		r = &RuleProfile{Rule: name}
		p.rules[name] = r
	}
	return r
}

// Program returns the program name announced by the run (empty before
// the run starts).
func (p *Profile) Program() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doc.Program
}

// Rounds returns the number of fixpoint rounds observed.
func (p *Profile) Rounds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doc.Rounds
}

// Slices returns the number of demand-driven slice evaluations
// observed (zero for plain runs).
func (p *Profile) Slices() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doc.Slices
}

// Events returns the total number of events received.
func (p *Profile) Events() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doc.Events
}

// Wall returns the total run wall time (zero until KindRunEnd).
func (p *Profile) Wall() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.doc.Wall
}

// Shards returns the per-shard profiles sorted by shard name (the
// values are copies; empty without federation events).
func (p *Profile) Shards() []ShardProfile { return p.Document(true).Shards }

// Fusions returns the compose-fusion summaries announced by the
// federation planner, in arrival order (empty without fusions).
func (p *Profile) Fusions() []string { return p.Document(true).Fused }

// Sources returns the per-source profiles sorted by source name (the
// values are copies; empty without source-layer events).
func (p *Profile) Sources() []SourceProfile { return p.Document(true).Sources }

// Rules returns the per-rule profiles sorted by rule name. The
// returned values are deep copies; mutating them does not affect the
// profile.
func (p *Profile) Rules() []RuleProfile { return p.Document(true).Rules }

// sortedCopies returns a copy of every value of m, in key order; nil
// for an empty map.
func sortedCopies[T any](m map[string]*T, copyOf func(*T) T) []T {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []T
	for _, n := range names {
		out = append(out, copyOf(m[n]))
	}
	return out
}

func copyRule(r *RuleProfile) RuleProfile {
	c := *r
	c.Calls = maps.Clone(r.Calls)
	c.Drops = maps.Clone(r.Drops)
	return c
}

// Document reads the whole profile under one lock, so the document
// cannot disagree with itself however many runs are still emitting.
// Everything in it is a copy. With timing false every wall time is
// zero (and so left out of the JSON), which makes the document
// deterministic across runs.
func (p *Profile) Document(timing bool) Document {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.doc
	d.RoundPending = slices.Clone(d.RoundPending)
	d.Deltas = slices.Clone(d.Deltas)
	d.Fused = slices.Clone(d.Fused)
	d.Shards = sortedCopies(p.shards, func(s *ShardProfile) ShardProfile { return *s })
	d.Sources = sortedCopies(p.sources, func(s *SourceProfile) SourceProfile { return *s })
	d.Rules = sortedCopies(p.rules, copyRule)
	if !timing {
		d.Wall = 0
		for i := range d.Shards {
			d.Shards[i].Wall = 0
		}
		for i := range d.Sources {
			d.Sources[i].Wall = 0
		}
		for i := range d.Rules {
			for ph := range d.Rules[i].Phases {
				d.Rules[i].Phases[ph].Wall = 0
			}
		}
	}
	return d
}

// Render writes the EXPLAIN-style table. With timing false the wall
// columns are omitted, which makes the output deterministic across
// runs — the form the golden tests pin.
func (p *Profile) Render(w io.Writer, timing bool) error {
	d := p.Document(timing)
	name := d.Program
	if name == "" {
		name = "(unnamed)"
	}
	if _, err := fmt.Fprintf(w, "EXPLAIN %s\n", name); err != nil {
		return err
	}
	if timing {
		fmt.Fprintf(w, "rounds: %d %v  total: %v\n", d.Rounds, d.RoundPending, d.Wall)
	} else {
		fmt.Fprintf(w, "rounds: %d %v\n", d.Rounds, d.RoundPending)
	}
	if d.Slices > 0 {
		fmt.Fprintf(w, "slices: %d rules=%d\n", d.Slices, d.SliceRules)
	}
	if d.DeltaApplied > 0 || d.DeltaFallbacks > 0 {
		fmt.Fprintf(w, "deltas: applied=%d fallbacks=%d\n", d.DeltaApplied, d.DeltaFallbacks)
		for _, l := range d.Deltas {
			fmt.Fprintf(w, "delta: %s\n", l)
		}
	}
	for _, l := range d.Fused {
		fmt.Fprintf(w, "fused: %s\n", l)
	}
	for _, s := range d.Shards {
		fmt.Fprintf(w, "shard %s  asks=%d degraded=%d answers=%d",
			s.Shard, s.Asks, s.Degraded, s.Answers)
		if timing {
			fmt.Fprintf(w, " wall=%v", s.Wall)
		}
		fmt.Fprintln(w)
	}
	for _, s := range d.Sources {
		fmt.Fprintf(w, "source %s  fetches=%d failures=%d retries=%d breaker-opens=%d",
			s.Source, s.Fetches, s.Failures, s.Retries, s.BreakerOpens)
		if timing {
			fmt.Fprintf(w, " wall=%v", s.Wall)
		}
		fmt.Fprintln(w)
	}
	for _, r := range d.Rules {
		fmt.Fprintf(w, "\nrule %s  fired=%d kept=%d skolems=%d outputs=%d\n",
			r.Rule, r.Fired, r.Kept, r.Skolems, r.Outputs)
		for _, pp := range r.Phases.rows() {
			if timing {
				fmt.Fprintf(w, "  %-10s events=%-6d items=%-6d wall=%v\n", pp.Phase, pp.Events, pp.Items, pp.Wall)
			} else {
				fmt.Fprintf(w, "  %-10s events=%-6d items=%d\n", pp.Phase, pp.Events, pp.Items)
			}
		}
		if len(r.Calls) > 0 {
			fmt.Fprintf(w, "  calls      %s\n", formatCounts(r.Calls))
		}
		if len(r.Drops) > 0 {
			fmt.Fprintf(w, "  drops      %s\n", formatCounts(r.Drops))
		}
		if r.CacheHits > 0 || r.CacheMisses > 0 {
			fmt.Fprintf(w, "  cache      hits=%d misses=%d\n", r.CacheHits, r.CacheMisses)
		}
	}
	return nil
}

// Text renders the table to a string (see Render).
func (p *Profile) Text(timing bool) string {
	var sb strings.Builder
	p.Render(&sb, timing) // strings.Builder never errors
	return sb.String()
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// JSON renders the document as indented JSON (see Document for timing).
func (p *Profile) JSON(timing bool) ([]byte, error) {
	return json.MarshalIndent(p.Document(timing), "", "  ")
}

// Recorder is a Sink that retains every event in arrival order —
// useful in tests and for building custom renderers. Unlike Profile
// its contents depend on arrival order, which interleaves when
// concurrent runs share it.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
