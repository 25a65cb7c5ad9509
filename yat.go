// Package yat is a Go implementation of the YAT system for data
// conversion ("Your Mediators Need Data Conversion!", Cluet, Delobel,
// Siméon, Smaga — SIGMOD 1998).
//
// YAT converts data between heterogeneous representations — SGML
// documents, relational tables, ODMG objects, HTML pages — through a
// middleware model of named ordered labeled trees and a declarative
// rule language, YATL. Conversion programs can be type checked
// (signature inference plus the model-instantiation relation),
// customized (specialized onto a specific pattern and then edited),
// combined (rule hierarchies with most-specific-first dispatch) and
// composed (two programs fused into one that skips the intermediate
// model).
//
// This package is a thin facade over the implementation packages:
//
//	internal/tree       ground trees, names, stores
//	internal/pattern    patterns, models, instantiation
//	internal/yatl       the YATL language (parser, printer, fixtures)
//	internal/engine     the rule interpreter
//	internal/typing     signature inference and type checks
//	internal/compose    instantiation, combination, composition
//	internal/relational in-memory relational database
//	internal/sgml       DTD and document parsing, validation
//	internal/odmg       ODMG schemas and object store
//	internal/wrapper    import/export wrappers
//	internal/library    program/model library
//	internal/mediator   querying the virtual target (mediator side)
//	internal/workload   synthetic benchmark data
//
// Quick start:
//
//	prog, _ := yat.ParseProgram(yat.Rules1And2)
//	inputs, _ := yat.ImportSGML(map[string]string{"b1": doc}, nil)
//	result, _ := yat.Run(prog, inputs)
//	fmt.Print(yat.FormatStore(result.Outputs))
//
// Demand-driven querying:
//
//	med := yat.NewMediator(prog, inputs, yat.WithDemandDriven(true))
//	answers, _ := med.Ask("class -> supplier < -> name -> N, -> city -> C, -> zip -> Z >", "Psup")
package yat

import (
	"context"

	"yat/internal/analysis"
	"yat/internal/compose"
	"yat/internal/engine"
	"yat/internal/federate"
	"yat/internal/library"
	"yat/internal/mediator"
	"yat/internal/pattern"
	"yat/internal/snapshot"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/typing"
	"yat/internal/wrapper"
	"yat/internal/yatl"
)

// Core data types.
type (
	// Name identifies a tree in a Store (plain or Skolem-minted).
	Name = tree.Name
	// Store holds named ground trees. The trees of a store that Run,
	// a mediator or a wrapper returns may share nodes with other
	// entries (an inlined value is its target's own tree): clone a
	// tree before writing to it.
	Store = tree.Store
	// Ref is a reference label naming another tree (&name).
	Ref = tree.Ref

	// Program is a YATL conversion program.
	Program = yatl.Program

	// RunOptions configures program execution. Prefer building
	// configurations from the With* options; a *RunOptions literal
	// still works anywhere an Option is accepted.
	RunOptions = engine.Options
	// Option is one functional configuration item for Run, RunContext,
	// RunSlice and NewMediator.
	Option = engine.Option
	// Result is the outcome of a run.
	Result = engine.Result
)

// Tree and store construction/parsing.
var (
	// NewStore returns an empty store.
	NewStore = tree.NewStore
	// ParseTree parses one ground tree in concrete syntax.
	ParseTree = tree.Parse
	// ParseStore parses `name: tree` entries.
	ParseStore = tree.ParseStore
	// FormatStore renders a store parseably.
	FormatStore = tree.FormatStore
	// PlainName builds a simple name; SkolemName a minted identity.
	PlainName  = tree.PlainName
	SkolemName = tree.SkolemName
)

// Language entry points.
var (
	// ParseProgram parses a YATL program.
	ParseProgram = yatl.Parse
	// ParseRule parses a single rule block.
	ParseRule = yatl.ParseRule
)

// The paper's programs, in YATL source form.
const (
	// Rules1And2 is the §3.1 SGML → ODMG program (Rules 1 and 2).
	Rules1And2 = yatl.SGMLToODMGSource
	// Rules1And2Typed is the same program with annotated PCDATA
	// variables (type-checkable and composable).
	Rules1And2Typed = yatl.AnnotatedSGMLToODMGSource
	// WebRules is the generic ODMG → HTML program (Web1–Web6).
	WebRules = yatl.WebProgramSource
	// TransposeRule is Rule 5 (Figure 4), the matrix transpose.
	TransposeRule = "program transpose\n" + yatl.Rule5Source
)

// Functional options for Run, RunContext, RunSlice and NewMediator.
// Later options win; nil options and `Run(prog, inputs, nil)` apply
// the defaults.
var (
	// WithRegistry supplies the external function/predicate registry.
	WithRegistry = engine.WithRegistry
	// WithTrace attaches a trace sink (nil disables at zero cost).
	WithTrace = engine.WithTrace
	// WithDemandDriven switches NewMediator to demand-driven
	// evaluation: queries materialize only the rule slices they need,
	// cached per functor group with fine-grained invalidation.
	WithDemandDriven = mediator.WithDemandDriven
)

// Run executes a program over an input store.
func Run(prog *Program, inputs *Store, opts ...Option) (*Result, error) {
	return engine.Run(prog, inputs, opts...)
}

// RunContext is Run under a cancellation context: the run aborts with
// the context's error at the next activation, binding or Skolem group
// after expiry.
func RunContext(ctx context.Context, prog *Program, inputs *Store, opts ...Option) (*Result, error) {
	return engine.RunContext(ctx, prog, inputs, opts...)
}

// ProgramFacts is a program's dead rules, as yatcheck's deadrule
// analyzer reports them: the rules that can never fire and the rules
// no root functor reaches.
//
// Deprecated: ProgramFacts, AnalyzeProgram, WithFacts, WithOptimize
// and WithParallelism stay only because the frozen benchmark names
// them (bench/convert.go:65,72,74,165 and
// bench/layers.go:503,581,584,628,629); its next change deletes them.
// WithFacts, WithOptimize and WithParallelism configure nothing: the
// match path and the worker pool they selected are gone, and the nil
// Option they return is skipped by every run.
type ProgramFacts = analysis.DeadRules

// AnalyzeProgram computes a program's dead rules; see ProgramFacts.
var AnalyzeProgram = analysis.FindDeadRules

// WithFacts configures nothing; see ProgramFacts.
func WithFacts(*ProgramFacts) Option { return nil }

// WithOptimize configures nothing; see ProgramFacts.
func WithOptimize(bool) Option { return nil }

// WithParallelism configures nothing; see ProgramFacts.
func WithParallelism(int) Option { return nil }

// Demand-driven evaluation (the engine half of mediator query
// pushdown): a slice is the dependency-closed set of rules needed to
// materialize some Skolem functors, and RunSlice executes only that
// slice with full-run fidelity.
var (
	// ComputeSlice computes the rule slice for a set of functors.
	ComputeSlice = engine.ComputeSlice
	// RunSlice executes a slice; its construct rules' outputs are
	// byte-identical to a full run's.
	RunSlice = engine.RunSlice
)

// Typed errors, matchable with errors.As across the facade:
//
//	var se *yat.SafetyError
//	if errors.As(err, &se) { ... se.Violations ... }
type (
	// ErrUnconverted reports §3.5 exception-rule failures: source
	// inputs no rule converted.
	ErrUnconverted = engine.ErrUnconverted
	// SafetyError reports §3.4 safety violations (dereferenced Skolem
	// cycles that are not safe-recursive).
	SafetyError = engine.SafetyError
	// NonDetError reports run-time non-determinism (one identity, two
	// distinct values) when NonDetWarn is off.
	NonDetError = engine.NonDetError
	// ParseError is a positioned YATL syntax error.
	ParseError = yatl.ParseError
)

// NewRegistry returns the built-in external functions (city, zip,
// sameaddress, data_to_string, ...); register more with its Register
// method.
func NewRegistry() *engine.Registry { return engine.NewRegistry() }

// Analyze runs the full static-analysis suite of the yatcheck framework
// (range restriction, unused variables, rule names, Skolem arities,
// undefined references, predicate sanity, collection primitives,
// exception reachability, §3.4 safety, §3.5 typing and coverage) over a
// program and returns the diagnostics sorted by source position.
func Analyze(prog *Program) ([]analysis.Diagnostic, error) {
	return analysis.Run(prog, analysis.DefaultAnalyzers(), nil)
}

// Typing.
var (
	// Infer computes a program's signature M_IN ↦ M_OUT.
	Infer = typing.Infer
	// CheckOutput verifies the inferred output model against a more
	// general model; CheckInput does the same for the input side.
	CheckOutput = typing.CheckOutput
	CheckInput  = typing.CheckInput
	// Compatible checks that two programs can compose (§4.3).
	Compatible = typing.Compatible
)

// Models and instantiation.
var (
	// InstanceOf checks the model instantiation relation (§2).
	InstanceOf = pattern.InstanceOf
	// Conforms validates one ground tree against a model pattern.
	Conforms = pattern.Conforms
	// YatModel, ODMGModel, CarSchemaModel and BrochureModel are the
	// Figure 2 fixtures.
	YatModel       = pattern.YatModel
	ODMGModel      = pattern.ODMGModel
	CarSchemaModel = pattern.CarSchemaModel
	BrochureModel  = pattern.BrochureModel
)

// InstantiateOptions configures program instantiation/composition.
type InstantiateOptions = compose.Options

// Instantiate specializes a general program onto a pattern (§4.1).
func Instantiate(prog *Program, input *pattern.Pattern, opts *InstantiateOptions) (*Program, error) {
	return compose.Instantiate(prog, input, opts)
}

// Combine merges programs into one rule hierarchy (§4.2).
func Combine(name string, progs ...*Program) *Program {
	return compose.Combine(name, progs...)
}

// ComposePrograms fuses prg1 : M1 ↦ M2 and prg2 : M2' ↦ M3 into a
// one-step M1 ↦ M3 program (§4.3). Options are variadic; nil options
// are skipped.
func ComposePrograms(prg1, prg2 *Program, opts ...compose.ComposeOption) (*Program, error) {
	return compose.Compose(prg1, prg2, opts...)
}

// SGMLOptions configures SGML import.
type SGMLOptions = wrapper.SGMLOptions

// Wrappers (Figure 6's runtime environment).
var (
	// ImportSGML parses and imports SGML documents.
	ImportSGML = wrapper.ImportSGML
	// ImportRelational exposes a relational database as YAT trees.
	ImportRelational = wrapper.ImportRelational
	// ExportODMG / ImportODMG move object databases in and out.
	ExportODMG = wrapper.ExportODMG
	ImportODMG = wrapper.ImportODMG
	// ExportHTML renders page objects as HTML documents.
	ExportHTML = wrapper.ExportHTML
)

// BuiltinLibrary returns the program/format library preloaded with
// the paper's programs and models.
func BuiltinLibrary() *library.Library { return library.Builtin() }

// Mediator answers pattern queries over the virtual target of a
// conversion — the mediator-side querying the paper sketches as the
// system's purpose (lazy, memoized materialization).
type Mediator = mediator.Mediator

// MediatorAnswer is one query result.
type MediatorAnswer = mediator.Answer

// NewMediator wraps a program and its sources for querying. Pass
// WithDemandDriven(true) for per-query slice evaluation with
// per-functor-group caching; other options configure the underlying
// engine runs.
func NewMediator(prog *Program, inputs *Store, opts ...Option) *Mediator {
	return mediator.New(prog, inputs, opts...)
}

// SourceFetchError names the sources whose failed fetch stopped an
// operation. The mediator degrades through any partial failure, so only
// every source failing at once aborts a materialization; a
// RefreshSource of a source that is down returns one naming it and
// leaves the answers as they were.
type SourceFetchError = mediator.FetchError

// Asker is the narrow query interface every mediator-shaped thing
// satisfies: a *Mediator, a Federation router, a remote shard client.
// Code written against Asker — the serve pool, the tools, another
// federation — does not care which it holds.
type Asker = mediator.Asker

// Durable warm starts (the internal/snapshot layer): a versioned,
// checksummed on-disk store for one mediator generation — the demand
// cache's functor groups, one record each, every cached entry once; the
// leaf-path indexes and the ask memo are derived again after a restore —
// keyed by canonical program+options hashes so a restored process
// answers byte-identically to a cold one or not at all. The file is
// format 3; a file of any other format is a cold boot (Reason
// "version"), never a conversion.
//
//	snap, _ := med.Snapshot()
//	yat.WriteSnapshot("warm/yat.snapshot.json", snap)
//	// ... later, in a new process over the same program and options:
//	snap, _ = yat.ReadSnapshot("warm/yat.snapshot.json")
//	if err := med.Restore(snap); err != nil { /* cold boot */ }
var (
	// WriteSnapshot persists a snapshot atomically (temp file + rename).
	WriteSnapshot = snapshot.Write
	// ReadSnapshot loads and integrity-checks a snapshot file.
	ReadSnapshot = snapshot.Read
)

// SnapshotLoadError is the typed fallback-to-cold error; its Reason
// says which invariant (checksum, version, program hash, ...) fired.
type SnapshotLoadError = snapshot.LoadError

// Federated mediation (the internal/federate layer): a parent
// mediator over child mediators — the Mask-Mediator-Wrapper pattern.
// A Federation shards the virtual target across children by functor
// group and serves Asks by scatter-gather with a deterministic merge;
// its answers are byte-identical to a single mediator over the
// unsharded program. Child calls run under the source layer's
// retry/breaker/timeout decorators, so a dead child degrades an Ask
// to partial results instead of failing it.
//
//	fed, _ := yat.NewFederation(yat.FederationConfig{
//	    Programs: []*yat.Program{prog},
//	    Shards:   4,
//	    Inputs:   inputs,
//	})
//	answers, _ := fed.Ask("...", "Psup")
type (
	// FederationConfig assembles a federation: a program pipeline to
	// shard, or explicit Children (in-process or remote).
	FederationConfig = federate.Config
	// FederationChild is one explicitly configured member.
	FederationChild = federate.Child
)

// NewFederation builds a federated mediator — the parent router, an
// Asker — from cfg.
func NewFederation(cfg FederationConfig) (*federate.Federation, error) {
	return federate.New(cfg)
}

// Fault-tolerant sources (the internal/source layer). A Source feeds a
// mediator live input trees; decorators compose resilience around it,
// conventionally breaker(retry(timeout(src))):
//
//	src := yat.SourceWithBreaker(
//	    yat.SourceWithRetry(
//	        yat.SourceWithTimeout(api, 2*time.Second),
//	        yat.RetryOptions{}),
//	    yat.BreakerOptions{})
//	med := yat.NewMediator(prog, nil, yat.WithSources(src))
//
// None of them keeps data: the last good snapshot is the one a
// demand-driven mediator pinned, and a RefreshSource that finds the
// source down leaves it serving.
type (
	// Source produces an input snapshot on demand; the mediator
	// fetches every source concurrently and merges deterministically.
	Source = source.Source
	// RetryOptions tunes SourceWithRetry (attempts, exponential
	// backoff, jitter; zero values mean the defaults).
	RetryOptions = source.RetryOptions
	// BreakerOptions tunes SourceWithBreaker (consecutive-failure
	// threshold, cooldown before the half-open probe).
	BreakerOptions = source.BreakerOptions
	// FaultStep scripts one fetch of a fault-injection source.
	FaultStep = source.Step
)

var (
	// WithSources attaches fault-tolerant sources to NewMediator; the
	// constructor store merges first, then each source in declaration
	// order (later sources win name collisions). A failing source
	// degrades to a partial materialization; only all sources failing
	// is an error.
	WithSources = mediator.WithSources
	// StaticSource serves a fixed store; FuncSource adapts a closure.
	StaticSource = source.Static
	FuncSource   = source.FromFunc
	// SourceWithTimeout bounds each fetch; SourceWithRetry retries
	// with exponential backoff and jitter; SourceWithBreaker trips a
	// circuit breaker on consecutive failures.
	SourceWithTimeout = source.WithTimeout
	SourceWithRetry   = source.WithRetry
	SourceWithBreaker = source.WithBreaker
	// NewFaultSource scripts a fault-injection source for tests, soaks
	// and demos.
	NewFaultSource = source.NewFault
	// NewFakeSourceClock returns a manual clock for deterministic
	// retry/breaker tests.
	NewFakeSourceClock = source.NewFakeClock
	// SourceStatsOf reads a source chain's merged counters.
	SourceStatsOf = source.StatsOf
)

// Observability (the internal/trace layer). Attach a sink through
// RunOptions.Trace; a nil sink costs nothing.
type (
	// TraceSink consumes typed engine events; a sink shared by
	// concurrent runs (a mediator's asks) must be safe for concurrent
	// use.
	TraceSink = trace.Sink
	// TraceProfile aggregates events into a per-rule/per-phase
	// EXPLAIN table (counts deterministic across runs).
	TraceProfile = trace.Profile
)

// NewTraceProfile returns an empty profile ready to attach to a run:
//
//	p := yat.NewTraceProfile()
//	res, err := yat.Run(prog, inputs, &yat.RunOptions{Trace: p})
//	fmt.Print(p.Text(true)) // EXPLAIN table with wall times
var NewTraceProfile = trace.NewProfile
