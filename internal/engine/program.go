package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"yat/internal/pattern"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Options configures a program run.
type Options struct {
	// Registry supplies external functions and predicates; defaults
	// to NewRegistry().
	Registry *Registry
	// Model is an extra model environment for pattern-domain checks,
	// merged with the models declared by the program.
	Model *pattern.Model
	// DisableSafety skips the static cycle check of §3.4.
	DisableSafety bool
	// NonDetWarn downgrades the run-time non-determinism alert from
	// an error to a warning (the paper only mandates an alert).
	NonDetWarn bool
	// MaxRounds bounds the activation fixpoint as defence against
	// non-terminating programs; 0 means the default (10000).
	MaxRounds int
	// CheckOutputs turns on the run-time type checker of Figure 6:
	// after dereferencing, every output must conform to some pattern
	// of this model; non-conforming outputs are reported as warnings
	// ("if required by the user, a type checker", §5.1).
	CheckOutputs *pattern.Model
	// DeltaSeeds, when non-nil, switches the run to delta-evaluation
	// mode: the activation fixpoint is seeded from these entries only,
	// while reference resolution and dereferencing still see the full
	// input store. The run then derives exactly the consequences of
	// the seed entries — the semi-naive delta of an insert-only source
	// refresh. See WithDeltaSeeds for the soundness preconditions the
	// caller must establish.
	DeltaSeeds *tree.Store
	// ignored lists the names of mediator-only options handed to this
	// run (collected by NewOptions); the run reports them as warnings.
	ignored []string
	// ctx carries RunContext's / RunSlice's context to the run core,
	// which checks it before each activation, binding and Skolem group
	// and, once cancelled, stops with an error wrapping ctx.Err(). Nil
	// means the run cannot be cancelled.
	ctx context.Context
	// Trace receives typed events for every phase of the run (see
	// internal/trace): matching attempts, external calls with
	// durations, dropped bindings with reasons, Skolem definitions,
	// construction, and round boundaries. Nil disables tracing at
	// zero cost — the engine then takes no timestamps and allocates
	// nothing on behalf of the sink. A sink shared by concurrent runs
	// (a mediator's asks) must be safe for concurrent use
	// (trace.Profile is).
	Trace trace.Sink
}

// Stats reports work done by a run. The JSON tags are the wire form
// GET /stats and the snapshot payload carry; field order is key order.
type Stats struct {
	Activations int `json:"activations"` // ground inputs processed (source + derived)
	Bindings    int `json:"bindings"`    // variable bindings accumulated across rules
	Outputs     int `json:"outputs"`     // Skolem identities defined
	Rounds      int `json:"rounds"`      // activation fixpoint rounds
}

// Add accumulates another run's work into s.
func (s *Stats) Add(o Stats) {
	s.Activations += o.Activations
	s.Bindings += o.Bindings
	s.Outputs += o.Outputs
	s.Rounds += o.Rounds
}

// Result is the outcome of a successful run.
type Result struct {
	// Outputs holds one tree per Skolem identity defined by the
	// program, fully dereferenced.
	Outputs *tree.Store
	// Warnings collects non-fatal diagnostics: dangling references,
	// dropped bindings, and (with NonDetWarn) non-determinism alerts.
	Warnings []string
	// Unconverted lists the identities of source inputs that no rule
	// matched — the condition the §3.5 exception rule reports.
	Unconverted []tree.Value
	Stats       Stats
}

// ErrUnconverted is returned when the program contains an exception
// rule (§3.5) and some source input was not involved in the
// conversion.
type ErrUnconverted struct {
	IDs []tree.Value
}

func (e *ErrUnconverted) Error() string {
	parts := make([]string, len(e.IDs))
	for i, id := range e.IDs {
		parts[i] = id.Display()
	}
	return "engine: exception rule fired: input data not converted: " + strings.Join(parts, ", ")
}

// FixpointError reports that the activation fixpoint exceeded its
// round bound (Options.MaxRounds) without converging.
type FixpointError struct {
	Rounds int
}

func (e *FixpointError) Error() string {
	return fmt.Sprintf("engine: activation fixpoint did not converge within %d rounds", e.Rounds)
}

// Run executes a YATL program over the input store and returns the
// converted outputs. The run follows the five phases of §3.1, with
// Skolem functions global to the program so rule order is irrelevant,
// hierarchy dispatch per §4.2, and end-of-run dereferencing.
//
// Configuration is variadic: pass With* options, a legacy *Options
// value, or nothing for the defaults.
func Run(prog *yatl.Program, inputs *tree.Store, opts ...Option) (*Result, error) {
	return execute(prog, inputs, NewOptions(opts...), nil)
}

// RunContext is Run with a cancellation context.
func RunContext(ctx context.Context, prog *yatl.Program, inputs *tree.Store, opts ...Option) (*Result, error) {
	o := NewOptions(opts...)
	o.ctx = ctx
	return execute(prog, inputs, o, nil)
}

// execute is the shared run core. With a nil slice it is a full run;
// with a slice it restricts matching and evaluation to the slice's
// rules, constructs only the construct set, and skips the full-run
// diagnostics that assume every rule ran (dangling-reference warnings
// and the §3.5 exception check — slices never contain exception
// rules).
func execute(prog *yatl.Program, inputs *tree.Store, opts *Options, sl *Slice) (*Result, error) {
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	if !opts.DisableSafety {
		if err := CheckSafety(prog); err != nil {
			return nil, err
		}
	}
	model := pattern.NewModel()
	for _, m := range prog.Models {
		model = model.Merge(m.Model)
	}
	if opts.Model != nil {
		model = model.Merge(opts.Model)
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	ctx := opts.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// A slice run interprets the restricted sub-program: the slice's
	// rules in declaration order, whole functor groups at a time, so
	// the §4.2 blocking and ordering semantics within each group are
	// exactly those of the full program.
	if sl != nil {
		prog = sl.SubProgram(prog)
	}

	r := &run{
		prog:      prog,
		reg:       reg,
		opts:      opts,
		ctx:       ctx,
		sink:      opts.Trace,
		inputs:    inputs,
		outputs:   tree.NewStore(),
		matcher:   &Matcher{Store: inputs, Model: model},
		hier:      buildHierarchy(prog, model),
		seenIDs:   map[string]bool{},
		ruleState: map[*yatl.Rule]*ruleState{},
	}
	// Mediator-only options do nothing on a plain engine run; warn so
	// the misconfiguration is visible instead of silently absorbed.
	for _, name := range opts.ignored {
		r.warn(fmt.Sprintf("option %s configures a mediator, not an engine run; it was ignored (use mediator.New)", name))
	}
	var runStart time.Time
	if r.sink != nil {
		runStart = time.Now()
		r.sink.Emit(trace.Event{Kind: trace.KindRunStart, Phase: trace.PhaseRun, Detail: prog.Name})
	}
	for _, rule := range prog.Rules {
		if rule.Exception {
			continue
		}
		r.ruleState[rule] = newRuleState(rule)
	}

	// Seed with the source inputs — or, in delta-evaluation mode, with
	// the delta entries alone (the matcher, reference resolution and
	// deref expansion still consult the full store).
	seeds := inputs
	if opts.DeltaSeeds != nil {
		seeds = opts.DeltaSeeds
	}
	for _, e := range seeds.Entries() {
		r.activate(tree.Ref{Name: e.Name}, e.Tree, true)
	}

	// Activation fixpoint: match new inputs, evaluate new bindings,
	// discover the Skolem arguments they mint, activate them.
	// Matching never activates, so the inputs pending at the top of a
	// round are all matched, in activation order, before any binding
	// they yield is evaluated.
	rounds := 0
	for r.processed < len(r.active) {
		rounds++
		if rounds > maxRounds {
			return nil, &FixpointError{Rounds: maxRounds}
		}
		pending := r.active[r.processed:]
		r.processed = len(r.active)
		r.round = rounds
		if r.sink != nil {
			r.sink.Emit(trace.Event{Kind: trace.KindRound, Phase: trace.PhaseRun, Round: rounds, Count: len(pending)})
		}
		for _, a := range pending {
			if err := ctx.Err(); err != nil {
				return nil, cancelErr(err)
			}
			r.matchActivation(a)
		}
		// Multi-pattern rules join across all activations; recompute
		// when their caches grew, then evaluate any new bindings.
		for _, rule := range prog.Rules {
			if rule.Exception || len(rule.Body) < 2 {
				continue
			}
			r.joinMultiBody(rule)
		}
		if err := r.evaluateNewBindings(); err != nil {
			return nil, err
		}
	}

	// Construction phase: group the evaluated bindings of each rule
	// by head Skolem identity and build the output trees.
	for _, rule := range prog.Rules {
		if rule.Exception {
			continue
		}
		// Support rules of a slice exist only to feed activations;
		// their outputs are not demanded and are not built.
		if sl != nil && !sl.Constructs(rule.Name) {
			continue
		}
		if err := r.constructRule(rule); err != nil {
			return nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	if err := expandDerefs(r.outputs); err != nil {
		return nil, err
	}
	// A slice store is partial by design — references into functors
	// outside the closure are expected, not dangling.
	if sl == nil {
		for _, name := range danglingRefs(r.outputs, inputs) {
			r.warn(fmt.Sprintf("dangling reference &%s in output", name))
		}
	}
	if opts.CheckOutputs != nil {
		r.checkOutputs(opts.CheckOutputs)
	}

	res := &Result{
		Outputs:     r.outputs,
		Warnings:    r.warnings,
		Unconverted: r.unconverted(),
		Stats: Stats{
			Activations: len(r.active),
			Bindings:    r.totalBindings(),
			Outputs:     r.outputs.Len(),
			Rounds:      rounds,
		},
	}
	if r.sink != nil {
		r.sink.Emit(trace.Event{Kind: trace.KindRunEnd, Phase: trace.PhaseRun, Duration: time.Since(runStart)})
	}
	if len(r.hier.exceptions) > 0 && len(res.Unconverted) > 0 {
		return res, &ErrUnconverted{IDs: res.Unconverted}
	}
	return res, nil
}

// activation is one ground input the rules are applied to: a source
// tree from the input store, or a subtree/atom demanded by a Skolem
// argument (the recursion of the Web rules).
type activation struct {
	id     tree.Value
	node   *tree.Node
	source bool
	// matched records that some non-exception rule matched this
	// input (used by the exception check).
	matched bool
}

// ruleState accumulates the matching and evaluation state of one rule
// across the run. Its bindings are frames of the rule's plan.
type ruleState struct {
	plan *rulePlan
	// perPattern caches, for each body pattern, the frames obtained
	// from every activation so far (multi-pattern rules only).
	perPattern [][]frame
	grew       bool
	// raw are the matched frames not yet put through lets and
	// predicates; keyed for deduplication.
	raw     []frame
	rawSeen map[string]bool
	rawNext int
	// evaluated are the frames that survived phases 2 and 3.
	evaluated []frame
	evalNext  int
}

func newRuleState(rule *yatl.Rule) *ruleState {
	return &ruleState{
		plan:       compileRule(rule),
		perPattern: make([][]frame, len(rule.Body)),
		rawSeen:    map[string]bool{},
	}
}

type run struct {
	prog *yatl.Program
	reg  *Registry
	opts *Options
	ctx  context.Context
	// sink receives trace events; nil disables tracing entirely (the
	// engine then takes no timestamps and allocates nothing for it).
	sink trace.Sink
	// round is the current fixpoint round, carried by trace events.
	round   int
	inputs  *tree.Store
	outputs *tree.Store
	matcher *Matcher
	hier    *hierarchy

	active    []*activation
	processed int
	seenIDs   map[string]bool

	ruleState map[*yatl.Rule]*ruleState
	warnings  []string

	// keyBuf is the scratch of the activation, dedup and Skolem keys;
	// slab holds the frames joins produce.
	keyBuf []byte
	slab   frameSlab
}

func (r *run) warn(msg string) { r.warnings = append(r.warnings, msg) }

// cancelErr wraps a context error as an engine error.
func cancelErr(err error) error {
	return fmt.Errorf("engine: run cancelled: %w", err)
}

func (r *run) totalBindings() int {
	total := 0
	for _, s := range r.ruleState {
		total += len(s.raw)
	}
	return total
}

// activate registers an input for rule application, once per
// identity.
func (r *run) activate(id tree.Value, node *tree.Node, source bool) {
	r.keyBuf = appendKey(r.keyBuf[:0], id)
	if r.seenIDs[string(r.keyBuf)] {
		return
	}
	r.seenIDs[string(r.keyBuf)] = true
	r.active = append(r.active, &activation{id: id, node: node, source: source})
}

// activateValue turns a Skolem-argument value into an activation: a
// reference resolves through the input store, a wrapped subtree
// activates directly, an atom becomes a leaf input (derived, so the
// exception check ignores it).
func (r *run) activateValue(v tree.Value) {
	switch val := v.(type) {
	case tree.Ref:
		if n, ok := r.inputs.Get(val.Name); ok {
			r.activate(val, n, false)
		}
	case tree.TreeVal:
		r.activate(val, val.Root, false)
	default:
		r.activate(val, tree.New(val), false)
	}
}

// matchActivation applies phase 1 to one input: per functor group,
// rules are tried most-specific-first and a match blocks the less
// specific conflicting rules for this input (§4.2). A single-pattern
// rule's frames join its raw bindings at once; a multi-pattern rule
// caches the frames of each body pattern for the round's join.
func (r *run) matchActivation(a *activation) {
	c := r.matcher.getCtx()
	defer r.matcher.putCtx(c)
	for _, functor := range r.hier.functorOrder {
		// blocked lists the rules of the group a match has shadowed for
		// this input, in the context's scratch.
		blocked := c.blocked[:0]
		for _, rule := range r.hier.groups[functor] {
			if slices.Contains(blocked, rule.Name) {
				continue
			}
			s := r.ruleState[rule]
			rp := s.plan
			var matchStart time.Time
			if r.sink != nil {
				matchStart = time.Now()
			}
			if len(rp.bodies) == 1 {
				fs := r.matchBodyPattern(c, rp, &rp.bodies[0], a)
				if r.sink != nil {
					r.sink.Emit(trace.Event{Kind: trace.KindMatch, Phase: trace.PhaseMatch,
						Rule: rule.Name, Round: r.round, Count: len(fs), Duration: time.Since(matchStart)})
				}
				if len(fs) == 0 {
					continue
				}
				a.matched = true
				blocked = append(blocked, r.hier.blocks[rule.Name]...)
				c.blocked = blocked
				r.addRaw(s, fs)
				continue
			}
			total := 0
			for i := range rp.bodies {
				fs := r.matchBodyPattern(c, rp, &rp.bodies[i], a)
				if len(fs) == 0 {
					continue
				}
				total += len(fs)
				a.matched = true
				s.perPattern[i] = append(s.perPattern[i], fs...)
				s.grew = true
			}
			if r.sink != nil {
				r.sink.Emit(trace.Event{Kind: trace.KindMatch, Phase: trace.PhaseMatch,
					Rule: rule.Name, Round: r.round, Count: total, Duration: time.Since(matchStart)})
			}
		}
	}
}

// matchBodyPattern matches one body pattern against an activation and
// binds the body's pattern variable to the input identity. The frames
// are copied out of the match scratch into one block of their own.
func (r *run) matchBodyPattern(c *matchCtx, rp *rulePlan, bp *bodyPlan, a *activation) []frame {
	if bp.domain != "" && r.matcher.Model != nil {
		if _, defined := r.matcher.Model.Get(bp.domain); defined {
			if !r.matcher.conformance().Conforms(a.node, bp.domain) {
				return nil
			}
		}
	}
	w := len(rp.vars)
	c.reset(w)
	c.matchNode(bp.root, a.node)
	c.bindAll(0, bp.slot, a.id)
	if c.top == 0 {
		return nil
	}
	vals := append([]tree.Value(nil), c.vals...)
	out := make([]frame, c.top)
	for i := range out {
		out[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

func (r *run) addRaw(s *ruleState, fs []frame) {
	for _, f := range fs {
		r.keyBuf = appendFrameKey(r.keyBuf[:0], f, nil)
		if s.rawSeen[string(r.keyBuf)] {
			continue
		}
		s.rawSeen[string(r.keyBuf)] = true
		s.raw = append(s.raw, f)
	}
}

// joinMultiBody recomputes the cross-pattern join of a multi-pattern
// rule when any per-pattern cache grew (Rule 3's heterogeneous join).
func (r *run) joinMultiBody(rule *yatl.Rule) {
	s := r.ruleState[rule]
	if !s.grew {
		return
	}
	s.grew = false
	joined := s.perPattern[0]
	for i := 1; i < len(s.perPattern); i++ {
		joined = hashJoin(joined, s.perPattern[i], &r.slab)
		if len(joined) == 0 {
			return
		}
	}
	r.addRaw(s, joined)
}

// evaluateNewBindings runs phases 2 (external functions with type
// filtering) and 3 (predicates) over the raw bindings accumulated
// since the last call, in (rule, binding) order, then discovers and
// activates the Skolem arguments minted by the survivors. A raised
// exception stops the run at the binding that raised it. New
// activations are only matched next round, so discovering them after
// the whole batch changes nothing the batch computes.
func (r *run) evaluateNewBindings() error {
	for _, rule := range r.prog.Rules {
		if rule.Exception {
			continue
		}
		s := r.ruleState[rule]
		for ; s.rawNext < len(s.raw); s.rawNext++ {
			if err := r.ctx.Err(); err != nil {
				return cancelErr(err)
			}
			f := s.raw[s.rawNext]
			ok, err := r.evalBinding(s.plan, f)
			if err != nil {
				return err
			}
			if ok {
				s.evaluated = append(s.evaluated, f)
			}
		}
	}
	// Discover activations minted by the new evaluated bindings.
	for _, rule := range r.prog.Rules {
		if rule.Exception {
			continue
		}
		s := r.ruleState[rule]
		for ; s.evalNext < len(s.evaluated); s.evalNext++ {
			f := s.evaluated[s.evalNext]
			for _, slot := range s.plan.minted {
				if v := f[slot]; v != nil {
					r.activateValue(v)
				}
			}
		}
	}
	return nil
}

// evalBinding applies the rule's lets and predicates to one frame,
// writing the let values into it: a raw frame belongs to its rule's
// state alone, and its dedup key is already taken. A function or
// predicate error drops the binding with a warning; a raised
// exception is returned.
func (r *run) evalBinding(rp *rulePlan, f frame) (bool, error) {
	rule := rp.rule
	for _, l := range rp.lets {
		args, ok := resolveOperands(f, l.args)
		if !ok {
			r.traceDrop(rule.Name, trace.PhaseFunctions, trace.DropUnresolvedOperand)
			return false, nil
		}
		var callStart time.Time
		if r.sink != nil {
			callStart = time.Now()
		}
		val, typed, err := r.reg.Call(l.fn, args)
		if r.sink != nil {
			passed := 0
			if typed && err == nil {
				passed = 1
			}
			r.sink.Emit(trace.Event{Kind: trace.KindCall, Phase: trace.PhaseFunctions,
				Rule: rule.Name, Round: r.round, Count: passed, Detail: l.fn, Duration: time.Since(callStart)})
		}
		if err != nil {
			var raised ErrRaised
			if errors.As(err, &raised) {
				return false, err
			}
			r.traceDrop(rule.Name, trace.PhaseFunctions, trace.DropFunctionError)
			r.warn(fmt.Sprintf("rule %s: %v (binding dropped)", rule.Name, err))
			return false, nil
		}
		if !typed {
			r.traceDrop(rule.Name, trace.PhaseFunctions, trace.DropTypeFilter)
			return false, nil // the §3.1 type filter
		}
		f[l.slot] = val
	}
	for i := range rp.preds {
		warned := len(r.warnings)
		ok, err := r.evalPred(rule.Name, &rp.preds[i], f)
		if err != nil {
			return false, err
		}
		if !ok {
			reason := trace.DropPredicateFalse
			if len(r.warnings) > warned {
				reason = trace.DropPredicateError
			}
			r.traceDrop(rule.Name, trace.PhasePredicates, reason)
			return false, nil
		}
	}
	if r.sink != nil {
		r.sink.Emit(trace.Event{Kind: trace.KindBindingKept, Phase: trace.PhasePredicates,
			Rule: rule.Name, Round: r.round, Count: 1})
	}
	return true, nil
}

// traceDrop emits a binding-dropped event; free when tracing is off.
func (r *run) traceDrop(rule string, phase trace.Phase, reason string) {
	if r.sink == nil {
		return
	}
	r.sink.Emit(trace.Event{Kind: trace.KindBindingDropped, Phase: phase,
		Rule: rule, Round: r.round, Detail: reason})
}

// evalPred reports whether one predicate holds for a frame. A failing
// predicate call warns and does not hold; a raised exception is
// returned.
func (r *run) evalPred(rule string, pp *predPlan, f frame) (bool, error) {
	p := &pp.pred
	if p.IsCall() {
		args, ok := resolveOperands(f, pp.args)
		if !ok {
			return false, nil
		}
		var callStart time.Time
		if r.sink != nil {
			callStart = time.Now()
		}
		res, typed, err := r.reg.CallBool(p.Call, args)
		if r.sink != nil {
			passed := 0
			if typed && err == nil {
				passed = 1
			}
			r.sink.Emit(trace.Event{Kind: trace.KindCall, Phase: trace.PhasePredicates,
				Rule: rule, Round: r.round, Count: passed, Detail: p.Call, Duration: time.Since(callStart)})
		}
		if err != nil {
			var raised ErrRaised
			if errors.As(err, &raised) {
				return false, err
			}
			r.warn(fmt.Sprintf("rule %s: %v (binding dropped)", rule, err))
			return false, nil
		}
		return res && typed, nil
	}
	left, lok := pp.left.value(f)
	if !lok {
		return false, nil
	}
	right, rok := pp.right.value(f)
	if !rok {
		return false, nil
	}
	ok, known := p.Op.Holds(left, right)
	if !known {
		return false, fmt.Errorf("engine: rule %s: unknown comparison", rule)
	}
	return ok, nil
}

func resolveOperands(f frame, ops []operand) ([]tree.Value, bool) {
	out := make([]tree.Value, len(ops))
	for i, o := range ops {
		v, ok := o.value(f)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// constructRule is phase 4+5 for one rule: evaluate the head Skolem
// per binding, group the bindings by identity, then build each group's
// output tree and commit it, in first-occurrence order.
func (r *run) constructRule(rule *yatl.Rule) error {
	s := r.ruleState[rule]
	if len(s.evaluated) == 0 {
		return nil
	}
	rp := s.plan
	// Group the frames by Skolem identity, in first-occurrence order.
	var oids []tree.Name
	index := map[string]int{}
	ids := make([]int, len(s.evaluated))
	var sizes []int
	c := &constructor{plan: rp}
	for k := range s.evaluated {
		ids[k] = -1
		var skolemStart time.Time
		if r.sink != nil {
			skolemStart = time.Now()
		}
		oid, err := c.evalSkolem(rule.Head.Functor, rp.skolem, s.evaluated[k:k+1])
		if err != nil {
			if r.sink != nil {
				r.sink.Emit(trace.Event{Kind: trace.KindBindingDropped, Phase: trace.PhaseSkolem,
					Rule: rule.Name, Detail: trace.DropSkolemError, Duration: time.Since(skolemStart)})
			}
			r.warn(fmt.Sprintf("rule %s: %v (binding dropped)", rule.Name, err))
			continue
		}
		r.keyBuf = oid.AppendKey(r.keyBuf[:0])
		if g, ok := index[string(r.keyBuf)]; ok {
			ids[k] = g
			sizes[g]++
			continue
		}
		if r.sink != nil {
			r.sink.Emit(trace.Event{Kind: trace.KindSkolemDefined, Phase: trace.PhaseSkolem,
				Rule: rule.Name, Count: 1, Detail: oid.String(), Duration: time.Since(skolemStart)})
		}
		ids[k] = len(oids)
		index[string(r.keyBuf)] = len(oids)
		oids = append(oids, oid)
		sizes = append(sizes, 1)
	}
	groups := splitByID(s.evaluated, ids, sizes)
	for i, oid := range oids {
		if err := r.ctx.Err(); err != nil {
			return cancelErr(err)
		}
		c.oid = oid
		var buildStart time.Time
		if r.sink != nil {
			buildStart = time.Now()
		}
		out, err := c.construct(rp.head, groups[i])
		if r.sink != nil {
			built := 0
			if err == nil {
				built = 1
			}
			r.sink.Emit(trace.Event{Kind: trace.KindConstruct, Phase: trace.PhaseConstruct,
				Rule: rule.Name, Count: built, Duration: time.Since(buildStart)})
		}
		if err != nil {
			var nd *NonDetError
			if errors.As(err, &nd) && r.opts.NonDetWarn {
				r.traceDrop(rule.Name, trace.PhaseConstruct, trace.DropNonDeterminism)
				r.warn(nd.Error())
				continue
			}
			return err
		}
		if prev, ok := r.outputs.Get(oid); ok {
			if !prev.Equal(out) {
				ndErr := &NonDetError{Rule: rule.Name, OID: oid,
					Why: "two distinct values for the same Skolem identity"}
				if r.opts.NonDetWarn {
					r.traceDrop(rule.Name, trace.PhaseConstruct, trace.DropNonDeterminism)
					r.warn(ndErr.Error())
					continue
				}
				return ndErr
			}
			continue
		}
		r.outputs.Put(oid, out)
	}
	return nil
}

// checkOutputs is the optional run-time type checker: every output
// tree must conform to some pattern of the declared output model.
func (r *run) checkOutputs(model *pattern.Model) {
	checker := pattern.NewConformanceChecker(r.outputs, model)
	for _, e := range r.outputs.Entries() {
		ok := false
		for _, name := range model.Names() {
			if checker.Conforms(e.Tree, name) {
				ok = true
				break
			}
		}
		if !ok {
			r.warn(fmt.Sprintf("output %s conforms to no pattern of the declared output model", e.Name))
		}
	}
}

// unconverted lists source inputs no rule matched, in a total
// deterministic order (kind, then canonical key), so the §3.5
// exception message does not depend on the order inputs were
// activated in.
func (r *run) unconverted() []tree.Value {
	var out []tree.Value
	for _, a := range r.active {
		if a.source && !a.matched {
			out = append(out, a.id)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := out[i].Kind(), out[j].Kind()
		if ki != kj {
			return ki.String() < kj.String()
		}
		return displayKey(out[i]) < displayKey(out[j])
	})
	return out
}
