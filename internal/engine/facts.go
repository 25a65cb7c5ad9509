// Program facts: what one analysis of a parsed program leaves for its
// two readers. AnalyzeProgram computes, once per program:
//
//   - the statically dead rules — rules that can never fire and rules
//     unreachable from any root functor — which yatcheck's deadrule
//     analyzer reports;
//   - which of the never-firing ones may be pruned from a demand slice,
//     and the memo of pruned slices (SliceFor) every mediator read and
//     refresh goes through.
//
// Pruning is conservative: a rule is dropped only when dropping it is
// invisible to the §4.2 blocking semantics, so a run over a pruned slice
// is byte-identical to a run over the whole one.
package engine

import (
	"sort"
	"strings"
	"sync"

	"yat/internal/yatl"
)

// ProgramFacts holds the facts AnalyzeProgram computes over one
// program. A ProgramFacts value is immutable after construction
// (except the internal slice memo, which is lock-guarded) and safe
// for concurrent use.
type ProgramFacts struct {
	prog *yatl.Program

	// NeverFire lists the rules whose predicates are statically
	// false, sorted by name.
	NeverFire []string
	// Unreachable lists the rules unreachable from any root functor
	// (a functor no other group references), sorted by name. Empty
	// when the program has no root functors to anchor the analysis.
	Unreachable []string

	neverFire map[string]bool
	prunable  map[string]bool

	mu     sync.Mutex
	slices map[string]*Slice
}

// maxSliceMemo bounds the per-program slice cache; combinations past
// the cap are computed but not retained.
const maxSliceMemo = 1024

// NeverFires reports whether the named rule can never fire.
func (f *ProgramFacts) NeverFires(rule string) bool { return f.neverFire[rule] }

// Prunable reports whether the named rule is dropped from demand
// slices: it never fires, and removing it cannot change any other
// rule's behaviour under the §4.2 blocking semantics.
func (f *ProgramFacts) Prunable(rule string) bool { return f.prunable[rule] }

// IsUnreachable reports whether the named rule was found unreachable
// from every root functor.
func (f *ProgramFacts) IsUnreachable(rule string) bool {
	for _, name := range f.Unreachable {
		if name == rule {
			return true
		}
	}
	return false
}

// AnalyzeProgram computes the program's facts. It is pure analysis:
// the program is not modified, and the result depends only on the
// program text.
func AnalyzeProgram(prog *yatl.Program) *ProgramFacts {
	f := &ProgramFacts{
		prog:      prog,
		neverFire: map[string]bool{},
		prunable:  map[string]bool{},
		slices:    map[string]*Slice{},
	}

	// Duplicate rule names make every by-name fact ambiguous; the
	// engine already misbehaves on such programs (yatcheck flags
	// them), so analysis proves nothing about them and prunes nothing.
	names := map[string]bool{}
	for _, r := range prog.Rules {
		if names[r.Name] {
			return f
		}
		names[r.Name] = true
	}

	groups := map[string][]*yatl.Rule{}
	var functorOrder []string
	for _, r := range prog.Rules {
		if r.Exception {
			continue
		}
		if _, ok := groups[r.Head.Functor]; !ok {
			functorOrder = append(functorOrder, r.Head.Functor)
		}
		groups[r.Head.Functor] = append(groups[r.Head.Functor], r)
	}
	orderBefore := map[string]bool{}
	for _, o := range prog.Orders {
		orderBefore[o.Before] = true
	}
	for _, r := range prog.Rules {
		if r.Exception || !ruleNeverFires(r) {
			continue
		}
		f.NeverFire = append(f.NeverFire, r.Name)
		f.neverFire[r.Name] = true
		// Pruning is safe only when the rule provably blocks nothing:
		// a never-firing rule still *matches*, and a match shadows the
		// less specific rules of its group. No user ordering may name
		// it first, and implicit blocking requires an identical
		// argument shape (hierarchy.go strict), which is the only
		// model-independent part of the blocking relation — so the
		// rule must be alone in its group or shaped unlike everyone.
		safe := !orderBefore[r.Name]
		if safe {
			grp := groups[r.Head.Functor]
			shape := argShape(r)
			for _, o := range grp {
				if o != r && argShape(o) == shape {
					safe = false
					break
				}
			}
		}
		if safe {
			f.prunable[r.Name] = true
		}
	}
	sort.Strings(f.NeverFire)
	f.Unreachable = unreachableRules(prog, groups, functorOrder)
	return f
}

// ruleNeverFires reports whether the rule's own predicates make it
// statically impossible to fire. The proof obligations mirror
// evalBinding exactly: a rule with lets may warn or raise during
// phase 2, so it is never "dead"; predicates are checked in order,
// and a call predicate aborts the scan (calls can warn or raise); a
// comparison between two constants is decided with the run-time
// semantics (tree.EqualValues / tree.Compare); a comparison involving
// a variable is skipped — it can silently drop a binding but never
// warn, so scanning past it is sound.
func ruleNeverFires(r *yatl.Rule) bool { return DeadPredIndex(r) >= 0 }

// DeadPredIndex returns the index of the first predicate proving the
// rule can never fire (a constant comparison that is false), or -1
// when no such proof exists. Exported for the deadrule analyzer,
// which positions its diagnostic on the offending predicate.
func DeadPredIndex(r *yatl.Rule) int {
	if len(r.Lets) > 0 {
		return -1
	}
	for i, p := range r.Preds {
		if p.IsCall() {
			return -1
		}
		if p.Left.IsVar || p.Right.IsVar || p.Left.Const == nil || p.Right.Const == nil {
			continue
		}
		if !constPredTrue(p) {
			return i
		}
	}
	return -1
}

// constPredTrue evaluates a constant comparison with evalPred's
// semantics. Unknown operators evaluate true (the engine errors on
// them at run time; that is not deadness).
func constPredTrue(p yatl.Pred) bool {
	ok, known := p.Op.Holds(p.Left.Const, p.Right.Const)
	return ok || !known
}

// headRefs lists the functor names a rule's head tree references
// (both &F references and ^F dereferences), restricted to functors
// the program defines.
func headRefs(r *yatl.Rule, groups map[string][]*yatl.Rule) []string {
	if r.Head.Tree == nil {
		return nil
	}
	var out []string
	for _, ref := range r.Head.Tree.PatternRefs() {
		if _, defined := groups[ref.Name]; defined {
			out = append(out, ref.Name)
		}
	}
	return out
}

// unreachableRules finds the rules no root functor can reach. Roots
// are the functors referenced by no *other* group's heads — the
// program's exported views. The reachable set closes over every head
// reference from the roots, then over the engine's own support
// closure (ComputeSlice), so a rule that feeds a reachable rule's
// activations is reachable too. Programs without roots (every group
// referenced by another — mutual recursion throughout) skip the
// analysis: there is no anchor to argue deadness from.
func unreachableRules(prog *yatl.Program, groups map[string][]*yatl.Rule, functorOrder []string) []string {
	if len(functorOrder) == 0 {
		return nil
	}
	referenced := map[string]bool{}
	for _, rules := range groups {
		for _, r := range rules {
			for _, g := range headRefs(r, groups) {
				if g != r.Head.Functor {
					referenced[g] = true
				}
			}
		}
	}
	var roots []string
	for _, fn := range functorOrder {
		if !referenced[fn] {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 || len(roots) == len(functorOrder) {
		return nil
	}
	reach := map[string]bool{}
	work := append([]string(nil), roots...)
	for _, fn := range roots {
		reach[fn] = true
	}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		for _, r := range groups[fn] {
			for _, g := range headRefs(r, groups) {
				if !reach[g] {
					reach[g] = true
					work = append(work, g)
				}
			}
		}
	}
	var closure []string
	for _, fn := range functorOrder {
		if reach[fn] {
			closure = append(closure, fn)
		}
	}
	sl := ComputeSlice(prog, closure...)
	var out []string
	for _, r := range prog.Rules {
		if !r.Exception && !sl.Includes(r.Name) {
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out
}

// SliceFor returns the (possibly pruned) slice for the given functors,
// memoized per functor combination. The single-functor probe — the
// demand-driven mediator's cache-hit path — allocates nothing after
// the first call.
func (f *ProgramFacts) SliceFor(functors ...string) *Slice {
	var key string
	switch len(functors) {
	case 0:
		key = ""
	case 1:
		key = functors[0]
	default:
		key = strings.Join(sortedUnique(functors), "\x00")
	}
	f.mu.Lock()
	if sl, ok := f.slices[key]; ok {
		f.mu.Unlock()
		return sl
	}
	f.mu.Unlock()
	sl := f.prune(ComputeSlice(f.prog, functors...))
	f.mu.Lock()
	if len(f.slices) < maxSliceMemo {
		f.slices[key] = sl
	}
	f.mu.Unlock()
	return sl
}

// prune drops the provably-prunable never-firing rules from a slice.
// The engine's run over the pruned slice is byte-identical to a run
// over the original: a pruned rule fires nothing, constructs nothing,
// mints no activations, emits no warnings (ruleNeverFires aborts on
// anything that could), and — by the prunability guard — blocks no
// other rule.
func (f *ProgramFacts) prune(sl *Slice) *Slice {
	if len(f.prunable) == 0 {
		return sl
	}
	drop := 0
	for name := range f.prunable {
		if sl.include[name] {
			drop++
		}
	}
	if drop == 0 {
		return sl
	}
	ps := &Slice{
		Functors:  sl.Functors,
		Closure:   sl.Closure,
		construct: make(map[string]bool, len(sl.construct)),
		include:   make(map[string]bool, len(sl.include)),
	}
	for _, r := range sl.Construct {
		if f.prunable[r.Name] {
			continue
		}
		ps.Construct = append(ps.Construct, r)
		ps.construct[r.Name] = true
		ps.include[r.Name] = true
	}
	for _, r := range sl.Support {
		if f.prunable[r.Name] {
			continue
		}
		ps.Support = append(ps.Support, r)
		ps.include[r.Name] = true
	}
	return ps
}
