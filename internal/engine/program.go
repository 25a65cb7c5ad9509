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
	// CheckOutputs turns on the run-time type checker of Figure 6:
	// after dereferencing, every output must conform to some pattern
	// of this model; non-conforming outputs are reported as warnings
	// ("if required by the user, a type checker", §5.1).
	CheckOutputs *pattern.Model
	// ignored lists the names of mediator-only options handed to this
	// run (collected by NewOptions); the run reports them as warnings.
	ignored []string
	// Trace receives typed events for every phase of the run (see
	// internal/trace): matching attempts, external calls with
	// durations, dropped bindings with reasons, Skolem definitions,
	// construction, and round boundaries. Nil disables tracing at
	// zero cost — the engine then takes no timestamps and allocates
	// nothing on behalf of the sink. A sink shared by concurrent runs
	// must be safe for concurrent use (trace.Profile is). A run whose
	// context carries a sink (trace.WithSink) emits to that one instead:
	// that is how a mediator's ask is traced.
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
	// program, fully dereferenced. Trees are shared: an inlined value
	// is the target entry's own tree, and the outputs sit side by side
	// in shared arrays, so one entry's tree can be a subtree of
	// another's. Clone a tree before writing to it.
	Outputs *tree.Store
	// Warnings collects non-fatal diagnostics: dangling references
	// and dropped bindings.
	Warnings []string
	// Unconverted lists the identities of source inputs that no rule
	// matched — the condition the §3.5 exception rule reports. A slice
	// run (RunSlice) leaves it nil.
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

// maxRounds bounds the activation fixpoint as defence against
// non-terminating programs.
const maxRounds = 10000

// FixpointError reports that the activation fixpoint exceeded its
// round bound (maxRounds) without converging.
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
// Configuration is variadic: pass With* options, or nothing for the
// defaults. The program is compiled for the one run; a caller running
// it again compiles it once (Compile).
func Run(prog *yatl.Program, inputs *tree.Store, opts ...Option) (*Result, error) {
	return RunContext(nil, prog, inputs, opts...)
}

// RunContext is Run with a cancellation context, checked before each
// activation, binding and Skolem group; nil cannot be cancelled.
func RunContext(ctx context.Context, prog *yatl.Program, inputs *tree.Store, opts ...Option) (*Result, error) {
	c, _ := Compile(prog, opts...)
	return c.Run(ctx, inputs)
}

// execute is the shared run core. With a nil slice it is a full run;
// with a slice it restricts matching and evaluation to the slice's
// rules and functor groups — whole groups, so the §4.2 blocking and
// ordering within each are exactly those of the full program —
// constructs only the construct set, and skips the full-run
// diagnostics that assume every rule ran (dangling-reference warnings
// and the §3.5 exception check — slices never contain exception
// rules). The run's working memory is a pooled scratch, handed back
// when the run returns, however it returns.
func (c *Compiled) execute(ctx context.Context, inputs *tree.Store, sl *Slice) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	sc := scratchPool.Get().(*scratch)
	defer func() {
		if sc.reset() <= maxPooledScratch {
			scratchPool.Put(sc)
		}
	}()
	return c.executeIn(sc, ctx, inputs, sl)
}

// executeIn is execute in the given scratch, which it leaves full.
func (c *Compiled) executeIn(sc *scratch, ctx context.Context, inputs *tree.Store, sl *Slice) (*Result, error) {
	opts := c.opts
	reg := opts.Registry
	if reg == nil {
		reg = defaultRegistry()
	}
	if ctx == nil {
		ctx = context.Background()
	}

	sc.conform.Reset(inputs, c.model)
	sc.matcher = Matcher{Store: inputs, Model: c.model}
	sc.matcher.once.Do(func() { sc.matcher.checker = sc.conform }) // the scratch lends its checker
	r := &run{
		scratch: sc,
		c:       c,
		scope:   c.all,
		reg:     reg,
		ctx:     ctx,
		sink:    c.sink(ctx),
		inputs:  inputs,
		outputs: tree.NewStore(),
	}
	if sl != nil {
		r.scope = sl.scope
	}
	// Mediator-only options do nothing on a plain engine run; warn so
	// the misconfiguration is visible instead of silently absorbed.
	for _, name := range opts.ignored {
		r.warn(fmt.Sprintf("option %s configures a mediator, not an engine run; it was ignored (use mediator.New)", name))
	}
	var runStart time.Time
	if r.sink != nil {
		runStart = time.Now()
		r.sink.Emit(trace.Event{Kind: trace.KindRunStart, Phase: trace.PhaseRun, Detail: c.prog.Name})
	}
	// The rule states, by rule position, emptied by the scratch's reset.
	for len(sc.states) < len(c.plans) {
		sc.states = append(sc.states, new(ruleState))
	}
	for _, p := range r.rules {
		s := sc.states[p]
		s.plan = c.plans[p]
		if n := len(s.plan.bodies); n > 1 {
			s.perPattern = slices.Grow(s.perPattern, n)[:n]
		}
	}
	sc.twins = slices.Grow(sc.twins, c.twins)[:c.twins]

	// Seed with the source inputs.
	for _, e := range inputs.Entries() {
		var id tree.Value = tree.Ref{Name: e.Name} // boxed once
		r.keyBuf = tree.AppendBinaryKey(r.keyBuf[:0], id)
		r.activate(r.keyBuf, id, e.Tree, true)
	}

	// Activation fixpoint: match new inputs, evaluate new bindings,
	// discover the Skolem arguments they mint, activate them.
	// Matching never activates, so the inputs pending at the top of a
	// round are all matched, in activation order, before any binding
	// they yield is evaluated — and r.active does not move while an
	// activation is matched.
	rounds := 0
	for r.processed < len(r.active) {
		rounds++
		if rounds > c.roundBound {
			return nil, &FixpointError{Rounds: c.roundBound}
		}
		first := r.processed
		r.processed = len(r.active)
		r.round = rounds
		if r.sink != nil {
			r.sink.Emit(trace.Event{Kind: trace.KindRound, Phase: trace.PhaseRun, Round: rounds, Count: r.processed - first})
		}
		for i := first; i < r.processed; i++ {
			if err := ctx.Err(); err != nil {
				return nil, cancelErr(err)
			}
			r.matchActivation(&r.active[i])
		}
		// Multi-pattern rules join across all activations; recompute
		// when their caches grew, then evaluate any new bindings.
		for _, p := range r.rules {
			if s := r.states[p]; len(s.plan.bodies) > 1 {
				r.joinMultiBody(s)
			}
		}
		if err := r.evaluateNewBindings(); err != nil {
			return nil, err
		}
	}

	// Construction phase: group the evaluated bindings of each rule
	// by head Skolem identity and build the output trees.
	for _, p := range r.rules {
		// Support rules of a slice exist only to feed activations;
		// their outputs are not demanded and are not built.
		if s := r.states[p]; sl == nil || sl.Constructs(s.plan.rule.Name) {
			if err := r.constructRule(s); err != nil {
				return nil, err
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, cancelErr(err)
	}
	// A slice store is partial by design — references into functors
	// outside the closure are expected, not dangling.
	checkAgainst := inputs
	if sl != nil {
		checkAgainst = nil
	}
	dangling, err := expandDerefs(r.outputs, checkAgainst)
	if err != nil {
		return nil, err
	}
	for _, name := range dangling {
		r.warn(fmt.Sprintf("dangling reference &%s in output", name))
	}
	if opts.CheckOutputs != nil {
		r.checkOutputs(opts.CheckOutputs)
	}

	res := &Result{
		Outputs:  r.outputs,
		Warnings: r.warnings,
		Stats: Stats{
			Activations: len(r.active),
			Bindings:    r.totalBindings(),
			Outputs:     r.outputs.Len(),
			Rounds:      rounds,
		},
	}
	// A slice run would list every input outside the slice, and it holds
	// no exception rule to report them to.
	if sl == nil {
		res.Unconverted = r.unconverted()
	}
	if r.sink != nil {
		r.sink.Emit(trace.Event{Kind: trace.KindRunEnd, Phase: trace.PhaseRun, Duration: time.Since(runStart)})
	}
	if len(c.hier.exceptions) > 0 && len(res.Unconverted) > 0 {
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
	// h is id's handle in the run's values table.
	h uint32
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
	// predicates, without repeats; rawSeen keys those of a multi-pattern
	// rule.
	raw     []frame
	rawSeen keySet
	rawNext int
	// evaluated are the frames that survived phases 2 and 3.
	evaluated []frame
	evalNext  int
}

// twinMatch is the one match of an activation that a group of twin
// rules — single-pattern rules whose bodies compile to the same plan —
// shares: the first rule of the group to reach the activation matches
// it, and the others copy the frames it kept, or skip the activation
// when it found none. The kept frames hold only body slots, which
// twins number alike, until the round's evaluation writes lets into
// them, after every activation of the round is matched.
type twinMatch struct {
	at     uint32     // handle of the activation matched, 0 before any
	n      int        // frames the match found, repeats included
	from   *ruleState // the rule that matched, whose raw[lo:hi] it kept
	lo, hi int
}

// sameBody decides which bodies are twins; tests swap it to run with
// no sharing, or with a faulty comparison.
var sameBody = (*bodyPlan).same

type run struct {
	// scratch is the run's working memory.
	*scratch
	c *Compiled
	// scope is the rules and functor groups run.
	scope
	reg *Registry
	ctx context.Context
	// sink receives trace events; nil disables tracing entirely (the
	// engine then takes no timestamps and allocates nothing for it).
	sink trace.Sink
	// round is the current fixpoint round, carried by trace events.
	round     int
	inputs    *tree.Store
	outputs   *tree.Store
	processed int
	warnings  []string
	// blocks holds the output trees the construction phase builds.
	blocks tree.Blocks
}

func (r *run) warn(msg string) { r.warnings = append(r.warnings, msg) }

// cancelErr wraps a context error as an engine error.
func cancelErr(err error) error {
	return fmt.Errorf("engine: run cancelled: %w", err)
}

func (r *run) totalBindings() int {
	total := 0
	for _, p := range r.rules {
		total += len(r.states[p].raw)
	}
	return total
}

// activate registers an input for rule application, once per
// identity: key is id's binary key. A nil node is a leaf labeled id,
// made only for an identity not seen before.
func (r *run) activate(key []byte, id tree.Value, node *tree.Node, source bool) {
	if _, fresh := r.seenIDs.add(key); !fresh {
		return
	}
	if node == nil {
		node = r.nodes.leaf(id)
	}
	r.active = append(r.active, activation{id: id, node: node, source: source, h: r.tab.add(id)})
}

// activateValue turns a Skolem-argument value into an activation: a
// wrapped subtree activates directly, an atom becomes a leaf input
// (derived, so the exception check ignores it). The value is keyed
// before anything is built, so a repeated atom makes no leaf. A
// reference activates nothing: the input it names, if any, was
// activated at the start of the run under the key of this very
// reference.
func (r *run) activateValue(v tree.Value) {
	if _, ok := v.(tree.Ref); ok {
		return
	}
	var node *tree.Node
	if val, ok := v.(tree.TreeVal); ok {
		node = val.Root
	}
	r.keyBuf = tree.AppendBinaryKey(r.keyBuf[:0], v)
	r.activate(r.keyBuf, v, node, false)
}

// matchActivation applies phase 1 to one input: per functor group,
// rules are tried most-specific-first and a match blocks the less
// specific conflicting rules for this input (§4.2). A single-pattern
// rule's frames join its raw bindings at once; a multi-pattern rule
// caches the frames of each body pattern for the round's join.
func (r *run) matchActivation(a *activation) {
	c := r.matcher.getCtx(&r.tab)
	defer r.matcher.putCtx(c)
	for _, g := range r.groups {
		// blocked lists the rules of the group a match has shadowed for
		// this input, in the context's scratch.
		blocked := c.blocked[:0]
		for _, p := range r.c.hier.groups[g] {
			if slices.Contains(blocked, p) {
				continue
			}
			s := r.states[p]
			rp := s.plan
			rule := rp.rule
			var matchStart time.Time
			if r.sink != nil {
				matchStart = time.Now()
			}
			if len(rp.bodies) == 1 {
				n := r.matchSingle(c, s, a)
				if r.sink != nil {
					r.sink.Emit(trace.Event{Kind: trace.KindMatch, Phase: trace.PhaseMatch,
						Rule: rule.Name, Round: r.round, Count: n, Duration: time.Since(matchStart)})
				}
				if n == 0 {
					continue
				}
				a.matched = true
				blocked = append(blocked, r.c.hier.shadows(p)...)
				c.blocked = blocked
				continue
			}
			total := 0
			for i := range rp.bodies {
				n := r.matchBodyPattern(c, rp, &rp.bodies[i], a)
				if n == 0 {
					continue
				}
				total += n
				a.matched = true
				for k := 0; k < n; k++ {
					s.perPattern[i] = append(s.perPattern[i], r.keepFrame(c.frame(k)))
				}
				s.grew = true
			}
			if r.sink != nil {
				r.sink.Emit(trace.Event{Kind: trace.KindMatch, Phase: trace.PhaseMatch,
					Rule: rule.Name, Round: r.round, Count: total, Duration: time.Since(matchStart)})
			}
		}
	}
}

// matchSingle matches a single-pattern rule against an activation,
// adds the frames it keeps to the rule's raw bindings, and returns how
// many frames the match found. A rule with twins matches only when it
// is the first of its group to reach the activation; otherwise it
// copies the frames the first kept into frames of its own width.
func (r *run) matchSingle(c *matchCtx, s *ruleState, a *activation) int {
	var t *twinMatch
	if s.plan.twin > 0 {
		if t = &r.twins[s.plan.twin-1]; t.at == a.h {
			for _, f := range t.from.raw[t.lo:t.hi] {
				k := r.slab.take(len(s.plan.vars))
				copy(k, f) // past the body slots, both frames are unbound
				s.raw = append(s.raw, k)
			}
			return t.n
		}
	}
	lo := len(s.raw)
	n := r.matchBodyPattern(c, s.plan, &s.plan.bodies[0], a)
	if n > 0 {
		r.addMatched(s, c)
	}
	if t != nil {
		*t = twinMatch{at: a.h, n: n, from: s, lo: lo, hi: len(s.raw)}
	}
	return n
}

// matchBodyPattern matches one body pattern against an activation and
// binds the body's pattern variable to the input identity. It returns
// how many frames it left at the bottom of c's stack; the caller copies
// those it keeps with keepFrame.
func (r *run) matchBodyPattern(c *matchCtx, rp *rulePlan, bp *bodyPlan, a *activation) int {
	if bp.domain != "" && r.matcher.Model != nil {
		if _, defined := r.matcher.Model.Get(bp.domain); defined {
			if !r.matcher.conformance().Conforms(a.node, bp.domain) {
				return 0
			}
		}
	}
	w := len(rp.vars)
	mark := len(r.tab.vals)
	c.reset(w)
	c.matchNode(bp.root, a.node)
	c.bindHandle(0, bp.slot, a.h)
	if c.top == 0 {
		// No frame holds what the match entered.
		r.tab.truncate(mark)
	}
	return c.top
}

// keepFrame copies a frame out of the match scratch into the run's slab.
func (r *run) keepFrame(f frame) frame {
	k := r.slab.take(len(f))
	copy(k, f)
	return k
}

// addMatched adds the frames one activation left on c's stack to a
// single-pattern rule's raw bindings, dropping repeats. Every frame
// binds the body's slot to the activation id, and seenIDs makes ids
// unique by key, so frames of two activations never share a key: only
// one activation's own frames can repeat, and a one-frame match needs
// no key at all; the others go through the dedup set.
func (r *run) addMatched(s *ruleState, c *matchCtx) {
	if c.top == 1 {
		s.raw = append(s.raw, r.keepFrame(c.frame(0)))
		return
	}
	r.dedup.reset()
	for i := 0; i < c.top; i++ {
		r.keyBuf = appendFrameKey(r.keyBuf[:0], &r.tab, c.frame(i), nil)
		if _, fresh := r.dedup.add(r.keyBuf); fresh {
			s.raw = append(s.raw, r.keepFrame(c.frame(i)))
		}
	}
}

// addRaw adds a multi-pattern rule's joined frames to its raw bindings,
// dropping every frame seen before: the join is recomputed whole each
// time a body's cache grows.
func (r *run) addRaw(s *ruleState, fs []frame) {
	for _, f := range fs {
		r.keyBuf = appendFrameKey(r.keyBuf[:0], &r.tab, f, nil)
		if _, fresh := s.rawSeen.add(r.keyBuf); !fresh {
			continue
		}
		s.raw = append(s.raw, f)
	}
}

// joinMultiBody recomputes the cross-pattern join of a multi-pattern
// rule when any per-pattern cache grew (Rule 3's heterogeneous join).
func (r *run) joinMultiBody(s *ruleState) {
	if !s.grew {
		return
	}
	s.grew = false
	joined := s.perPattern[0]
	for i := 1; i < len(s.perPattern); i++ {
		joined = r.join.hashJoin(&r.tab, &r.slab, r.join.out[i%2][:0], joined, s.perPattern[i])
		r.join.out[i%2] = joined
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
	for _, p := range r.rules {
		s := r.states[p]
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
	for _, p := range r.rules {
		s := r.states[p]
		for ; s.evalNext < len(s.evaluated); s.evalNext++ {
			f := s.evaluated[s.evalNext]
			for _, slot := range s.plan.minted {
				if h := f[slot]; h != 0 {
					r.activateValue(r.tab.vals[h])
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
		args, ok := r.resolveOperands(f, l.args)
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
		f[l.slot] = r.tab.add(val)
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
		args, ok := r.resolveOperands(f, pp.args)
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
	left, lok := pp.left.value(&r.tab, f)
	if !lok {
		return false, nil
	}
	right, rok := pp.right.value(&r.tab, f)
	if !rok {
		return false, nil
	}
	ok, known := p.Op.Holds(left, right)
	if !known {
		return false, fmt.Errorf("engine: rule %s: unknown comparison", rule)
	}
	return ok, nil
}

// resolveOperands returns the values of a call's operands in frame f,
// in the scratch's operand slice, which the next call reuses (Func.Fn
// retains no argument slice); ok is false when one is unbound.
func (r *run) resolveOperands(f frame, ops []operand) ([]tree.Value, bool) {
	r.operands = r.operands[:0]
	for _, o := range ops {
		v, ok := o.value(&r.tab, f)
		if !ok {
			return nil, false
		}
		r.operands = append(r.operands, v)
	}
	return r.operands, true
}

// constructRule is phase 4+5 for one rule: evaluate the head Skolem
// per binding, group the bindings by identity, then build each group's
// output tree and commit it, in first-occurrence order.
func (r *run) constructRule(s *ruleState) error {
	if len(s.evaluated) == 0 {
		return nil
	}
	rp := s.plan
	rule := rp.rule
	// Group the frames by Skolem identity, in first-occurrence order.
	c := &r.cons
	c.plan, c.tab, c.blocks, c.nodes, c.groups, c.frames = rp, &r.tab, &r.blocks, &r.nodes, c.groups[:0], c.frames[:0]
	c.oidKeys.reset()
	clear(c.oids) // the previous rule's names
	c.ids, c.oids, c.sizes = append(c.ids[:0], make([]int, len(s.evaluated))...), c.oids[:0], c.sizes[:0]
	for k := range s.evaluated {
		c.ids[k] = -1
		var skolemStart time.Time
		if r.sink != nil {
			skolemStart = time.Now()
		}
		// A frame is keyed from its argument values in scratch; only a
		// new identity builds its name, and only an unbound argument
		// goes through evalSkolem, for its error.
		args, bound := c.skolemArgs(rp.skolem, s.evaluated[k])
		if bound {
			r.keyBuf = tree.Name{Functor: rule.Head.Functor, Args: args}.AppendBinaryKey(r.keyBuf[:0])
			if g, fresh := c.oidKeys.add(r.keyBuf); !fresh {
				c.ids[k] = g
				c.sizes[g]++
				continue
			}
		}
		var oid tree.Name
		var err error
		switch {
		case !bound:
			oid, err = c.evalSkolem(rule.Head.Functor, rp.skolem, s.evaluated[k:k+1])
		case len(args) == 0:
			oid = tree.PlainName(rule.Head.Functor)
		default:
			vals := r.blocks.Values(len(args))
			copy(vals, args)
			oid = tree.SkolemName(rule.Head.Functor, vals...)
		}
		if err != nil {
			if r.sink != nil {
				r.sink.Emit(trace.Event{Kind: trace.KindBindingDropped, Phase: trace.PhaseSkolem,
					Rule: rule.Name, Detail: trace.DropSkolemError, Duration: time.Since(skolemStart)})
			}
			r.warn(fmt.Sprintf("rule %s: %v (binding dropped)", rule.Name, err))
			continue
		}
		if r.sink != nil {
			r.sink.Emit(trace.Event{Kind: trace.KindSkolemDefined, Phase: trace.PhaseSkolem,
				Rule: rule.Name, Count: 1, Detail: oid.String(), Duration: time.Since(skolemStart)})
		}
		c.ids[k] = len(c.oids)
		c.oids = append(c.oids, oid)
		c.sizes = append(c.sizes, 1)
	}
	groups := c.splitByID(s.evaluated, c.ids, c.sizes)
	r.outputs.Grow(len(c.oids))
	for i, oid := range c.oids {
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
			return err
		}
		// Group i's key is number i of c.oidKeys: the frame that keys a
		// new identity names it, and a frame with an unbound argument
		// keys nothing and names nothing (evalSkolem fails on it).
		if prev, found := r.outputs.GetOrPut(c.oidKeys.key(i), oid, out); found && !prev.Equal(out) {
			return &NonDetError{Rule: rule.Name, OID: oid,
				Why: "two distinct values for the same Skolem identity"}
		}
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
