// Dead-rule facts: the rules of a program that can never fire and the
// rules unreachable from any root functor, which DeadRule reports. A
// dead rule is legal, just inert: the engine runs it and it produces
// nothing.
package analysis

import (
	"sort"

	"yat/internal/engine"
	"yat/internal/yatl"
)

// DeadRules lists the statically dead rules of one program. A value
// is immutable after construction and safe for concurrent use.
type DeadRules struct {
	// NeverFire lists the rules whose predicates are statically
	// false, sorted by name.
	NeverFire []string
	// Unreachable lists the rules unreachable from any root functor
	// (a functor no other group references), sorted by name. Empty
	// when the program has no root functors to anchor the analysis.
	Unreachable []string
}

// FindDeadRules computes the program's dead rules. It is pure
// analysis: the program is not modified, and the result depends only
// on the program text.
func FindDeadRules(prog *yatl.Program) *DeadRules {
	d := &DeadRules{}
	// Duplicate rule names make every by-name fact ambiguous; the
	// engine already misbehaves on such programs (rule-names flags
	// them), so analysis proves nothing about them.
	names := map[string]bool{}
	for _, r := range prog.Rules {
		if names[r.Name] {
			return d
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
		if deadPredIndex(r) >= 0 {
			d.NeverFire = append(d.NeverFire, r.Name)
		}
	}
	sort.Strings(d.NeverFire)
	d.Unreachable = unreachableRules(prog, groups, functorOrder)
	return d
}

// deadPredIndex returns the index of the first predicate proving the
// rule can never fire (a constant comparison that is false), or -1
// when no such proof exists. The proof obligations mirror the engine's
// binding evaluation exactly: a rule with lets may warn or raise
// during phase 2, so it is never dead; predicates are checked in
// order, and a call predicate aborts the scan (calls can warn or
// raise); a comparison between two constants is decided with the
// run-time semantics (tree.EqualValues / tree.Compare); a comparison
// involving a variable is skipped — it can silently drop a binding but
// never warn, so scanning past it is sound.
func deadPredIndex(r *yatl.Rule) int {
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

// constPredTrue evaluates a constant comparison with the engine's
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
// closure (engine.ComputeSlice), so a rule that feeds a reachable
// rule's activations is reachable too. Programs without roots (every
// group referenced by another — mutual recursion throughout) skip the
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
	sl := engine.ComputeSlice(prog, closure...)
	var out []string
	for _, r := range prog.Rules {
		if !r.Exception && !sl.Includes(r.Name) {
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out
}

// DeadRules returns the dead rules of the pass's program
// (FindDeadRules), computed on first need and shared by every pass of
// the driver Run.
func (p *Pass) DeadRules() *DeadRules { return p.deadRules() }

// DeadRule reports the statically-dead rules: rules whose constant
// predicates can never hold, positioned on the offending predicate,
// and rules unreachable from every root functor, positioned on the
// rule name. Both are warnings — a dead rule is legal, just inert.
var DeadRule = &Analyzer{
	Name: "deadrule",
	Doc:  "report rules that can never fire and rules unreachable from any root functor",
	Run: func(pass *Pass) error {
		d := pass.DeadRules()
		byName := map[string]*yatl.Rule{}
		for _, r := range pass.Prog.Rules {
			byName[r.Name] = r
		}
		for _, name := range d.NeverFire {
			r := byName[name]
			if r == nil {
				continue
			}
			pos := r.Pos
			if i := deadPredIndex(r); i >= 0 {
				pos = r.Preds[i].Pos
			}
			pass.Reportf(pos, SeverityWarning,
				"rule %s can never fire: this predicate is always false", name)
		}
		for _, name := range d.Unreachable {
			r := byName[name]
			if r == nil {
				continue
			}
			pass.Reportf(r.Pos, SeverityWarning,
				"rule %s is unreachable: no root functor demands its outputs", name)
		}
		return nil
	},
}
