// Program facts: the optimizer stage between static analysis and the
// engine. AnalyzeProgram computes, once per parsed program, the facts
// the hot paths consume at run time:
//
//   - a dense symbol table (pattern.SymTab) interning every label,
//     functor and Skolem name the program mentions;
//   - a head-symbol dispatch index replacing the linear scan of every
//     rule against every activation in the match phase;
//   - the set of statically dead rules (rules that can never fire, and
//     rules unreachable from any root functor), with the never-firing
//     ones pruned from demand slices when provably safe;
//   - a dependency stratification of the functor groups (evaluation
//     order; advisory — the fixpoint result is order-independent).
//
// Every optimization here is conservative: a dispatch set may admit a
// rule that cannot match, never the reverse; a rule is pruned only
// when dropping it is invisible to the §4.2 blocking semantics. The
// engine's output with facts enabled is byte-identical to the output
// without them, at every parallelism — pinned by optimize_test.go.
package engine

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// RuleSet is a bitset over the rule indices of one program (the
// position of each rule in Program.Rules).
type RuleSet struct {
	bits []uint64
}

func newRuleSet(n int) *RuleSet {
	return &RuleSet{bits: make([]uint64, (n+63)/64)}
}

// Has reports whether rule index i is in the set.
func (s *RuleSet) Has(i int) bool {
	w := i >> 6
	return w < len(s.bits) && s.bits[w]&(1<<(uint(i)&63)) != 0
}

// Len returns the number of rules in the set.
func (s *RuleSet) Len() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s *RuleSet) add(i int) { s.bits[i>>6] |= 1 << (uint(i) & 63) }

func (s *RuleSet) clone() *RuleSet {
	return &RuleSet{bits: append([]uint64(nil), s.bits...)}
}

func (s *RuleSet) union(o *RuleSet) {
	for i, w := range o.bits {
		s.bits[i] |= w
	}
}

// symDispatch is the dispatch entry for one root symbol: the rules
// admissible for any node with that root label, refined — when some
// pattern constrains its first child — by the symbol of the node's
// first child.
type symDispatch struct {
	// base admits the wildcard rules plus every rule rooted at the
	// symbol without a first-child refinement.
	base *RuleSet
	// byChild maps a first-child symbol to base plus the rules refined
	// on exactly that child. Nil when no pattern refines.
	byChild map[pattern.Sym]*RuleSet
}

// DispatchIndex is a discrimination trie keyed on interned head
// symbols: given an activation's root node it returns the set of
// rules whose body patterns could possibly match it. The sets are
// pre-merged at build time, so Lookup is a map probe or two and
// allocates nothing.
type DispatchIndex struct {
	syms     *pattern.SymTab
	numRules int
	// wildcard admits the rules no static class excludes: variable
	// roots, ^P conformance roots, non-symbol constant roots.
	wildcard *RuleSet
	// refs admits the rules that can match a reference leaf: the
	// wildcard set plus the &P-rooted rules.
	refs *RuleSet
	// roots indexes the rules rooted at a constant symbol.
	roots map[pattern.Sym]*symDispatch
}

// Roots returns the number of distinct root symbols indexed.
func (d *DispatchIndex) Roots() int { return len(d.roots) }

// Lookup returns the set of rules admissible for an activation rooted
// at n. The set is conservative: every rule that could match n is in
// it. Safe for concurrent use; performs no allocation.
func (d *DispatchIndex) Lookup(n *tree.Node) *RuleSet {
	if n == nil {
		return d.wildcard
	}
	if n.IsRef() {
		return d.refs
	}
	sym, ok := n.Label.(tree.Symbol)
	if !ok {
		return d.wildcard
	}
	s := d.syms.Lookup(string(sym))
	if s < 0 {
		return d.wildcard
	}
	sd := d.roots[s]
	if sd == nil {
		return d.wildcard
	}
	if sd.byChild != nil && len(n.Children) > 0 {
		if c, ok := n.Children[0].Label.(tree.Symbol); ok {
			if cs := d.syms.Lookup(string(c)); cs >= 0 {
				if rs := sd.byChild[cs]; rs != nil {
					return rs
				}
			}
		}
	}
	return sd.base
}

// Body-pattern dispatch classes.
const (
	classWildcard = iota // could match anything: always admissible
	classRefOnly         // &P root: only matches reference leaves
	classRooted          // constant symbol root: only matches that label
)

// classifyBody assigns one body pattern its dispatch class. The class
// must over-approximate matchability: when in doubt, wildcard.
func classifyBody(bp yatl.BodyPattern) (cls int, root, child string) {
	t := bp.Tree
	if t == nil {
		return classWildcard, "", ""
	}
	switch l := t.Label.(type) {
	case pattern.Const:
		sym, ok := l.Value.(tree.Symbol)
		if !ok {
			// Non-symbol constant roots are rare; they only match
			// identically-labelled nodes, but Lookup keys on symbols,
			// so they ride in the wildcard set.
			return classWildcard, "", ""
		}
		root = string(sym)
		// First-child refinement: a leading one-edge to a constant
		// symbol child consumes the node's first child positionally
		// (matchEdgesAt), so nodes whose first child differs can be
		// excluded statically.
		if len(t.Edges) > 0 && t.Edges[0].Occ == pattern.OccOne && t.Edges[0].To != nil {
			if cl, ok := t.Edges[0].To.Label.(pattern.Const); ok {
				if cs, ok := cl.Value.(tree.Symbol); ok {
					child = string(cs)
				}
			}
		}
		return classRooted, root, child
	case pattern.PatRef:
		if l.Ref {
			return classRefOnly, "", ""
		}
		return classWildcard, "", "" // ^P: conformance, not structure
	default: // pattern.Var, leaf or internal
		return classWildcard, "", ""
	}
}

// buildDispatch assembles the dispatch index. A rule is admissible for
// a node when any of its body patterns' classes admits it.
func buildDispatch(prog *yatl.Program, syms *pattern.SymTab, ruleIndex map[string]int) *DispatchIndex {
	n := len(prog.Rules)
	d := &DispatchIndex{
		syms:     syms,
		numRules: n,
		wildcard: newRuleSet(n),
		roots:    map[pattern.Sym]*symDispatch{},
	}
	refOnly := newRuleSet(n)
	type rootAcc struct {
		base    *RuleSet
		byChild map[pattern.Sym]*RuleSet
	}
	acc := map[pattern.Sym]*rootAcc{}
	for _, r := range prog.Rules {
		if r.Exception {
			continue
		}
		i := ruleIndex[r.Name]
		for _, bp := range r.Body {
			cls, root, child := classifyBody(bp)
			switch cls {
			case classWildcard:
				d.wildcard.add(i)
			case classRefOnly:
				refOnly.add(i)
			case classRooted:
				rs := syms.Intern(root)
				ra := acc[rs]
				if ra == nil {
					ra = &rootAcc{base: newRuleSet(n), byChild: map[pattern.Sym]*RuleSet{}}
					acc[rs] = ra
				}
				if child == "" {
					ra.base.add(i)
					continue
				}
				cs := syms.Intern(child)
				set := ra.byChild[cs]
				if set == nil {
					set = newRuleSet(n)
					ra.byChild[cs] = set
				}
				set.add(i)
			}
		}
	}
	d.refs = d.wildcard.clone()
	d.refs.union(refOnly)
	for rs, ra := range acc {
		sd := &symDispatch{base: d.wildcard.clone()}
		sd.base.union(ra.base)
		if len(ra.byChild) > 0 {
			sd.byChild = make(map[pattern.Sym]*RuleSet, len(ra.byChild))
			for cs, set := range ra.byChild {
				merged := sd.base.clone()
				merged.union(set)
				sd.byChild[cs] = merged
			}
		}
		d.roots[rs] = sd
	}
	return d
}

// ProgramFacts holds every fact AnalyzeProgram computes over one
// program. A ProgramFacts value is immutable after construction
// (except the internal slice memo, which is lock-guarded) and safe
// for concurrent use. Facts are only valid for the exact *Program
// they were computed from — the engine checks the pointer and falls
// back to the unoptimized path on mismatch rather than trusting stale
// facts.
type ProgramFacts struct {
	prog *yatl.Program

	// Syms interns every label, functor and Skolem name of the
	// program into dense integer codes.
	Syms *pattern.SymTab
	// RuleIndex maps rule names to their position in Program.Rules
	// (the index space of every RuleSet).
	RuleIndex map[string]int
	// Dispatch is the head-symbol dispatch index; nil when dispatch
	// is disabled (duplicate rule names make indices ambiguous).
	Dispatch *DispatchIndex
	// NeverFire lists the rules whose predicates are statically
	// false, sorted by name.
	NeverFire []string
	// Unreachable lists the rules unreachable from any root functor
	// (a functor no other group references), sorted by name. Empty
	// when the program has no root functors to anchor the analysis.
	Unreachable []string
	// Strata is the functor evaluation order: each stratum lists the
	// functors (sorted) of one strongly-connected component of the
	// demand graph, dependencies before dependents.
	Strata [][]string

	neverFire map[string]bool
	prunable  map[string]bool

	mu     sync.Mutex
	slices map[string]*Slice
}

// maxSliceMemo bounds the per-program slice cache; combinations past
// the cap are computed but not retained.
const maxSliceMemo = 1024

// For reports whether the facts were computed from exactly this
// program value.
func (f *ProgramFacts) For(prog *yatl.Program) bool {
	return f != nil && f.prog == prog
}

// Summary renders the facts for trace output and EXPLAIN, stable
// across runs.
func (f *ProgramFacts) Summary() string {
	roots := 0
	if f.Dispatch != nil {
		roots = f.Dispatch.Roots()
	}
	return fmt.Sprintf("syms=%d dispatch-roots=%d dead-rules=%d unreachable=%d strata=%d",
		f.Syms.Len(), roots, len(f.NeverFire), len(f.Unreachable), len(f.Strata))
}

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
		Syms:      pattern.NewSymTab(),
		RuleIndex: map[string]int{},
		neverFire: map[string]bool{},
		prunable:  map[string]bool{},
		slices:    map[string]*Slice{},
	}

	// Pass 1: interning and rule indexing.
	dup := false
	for i, r := range prog.Rules {
		if _, seen := f.RuleIndex[r.Name]; seen {
			dup = true
		}
		f.RuleIndex[r.Name] = i
		f.Syms.Intern(r.Head.Functor)
		if r.Head.Tree != nil {
			f.Syms.InternTree(r.Head.Tree)
		}
		for _, bp := range r.Body {
			f.Syms.InternTree(bp.Tree)
		}
	}

	// Duplicate rule names make every by-name fact ambiguous; the
	// engine already misbehaves on such programs (yatcheck flags
	// them), so analysis keeps only the symbol table.
	if dup {
		return f
	}

	// Pass 2: dispatch index.
	f.Dispatch = buildDispatch(prog, f.Syms, f.RuleIndex)

	// Pass 3: dead rules (never-fire + unreachable) and prunability.
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

	// Pass 4: dependency stratification.
	f.Strata = stratify(groups, functorOrder)
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

// stratify orders the functor groups by dependency: Tarjan's SCC over
// the demand graph (an edge f→g when some rule of f's group
// references g in its head), emitted dependencies-first. The fixpoint
// result is order-independent; the strata are advisory (EXPLAIN,
// yatcheck -facts) and a cheap cycle report.
func stratify(groups map[string][]*yatl.Rule, functorOrder []string) [][]string {
	adj := map[string][]string{}
	for _, fn := range functorOrder {
		seen := map[string]bool{}
		for _, r := range groups[fn] {
			for _, g := range headRefs(r, groups) {
				if g != fn && !seen[g] {
					seen[g] = true
					adj[fn] = append(adj[fn], g)
				}
			}
		}
		sort.Strings(adj[fn])
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var strata [][]string
	next := 0
	var strongConnect func(v string)
	strongConnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, visited := index[w]; !visited {
				strongConnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			strata = append(strata, scc)
		}
	}
	for _, fn := range functorOrder {
		if _, visited := index[fn]; !visited {
			strongConnect(fn)
		}
	}
	return strata
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
