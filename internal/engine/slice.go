// Demand-driven evaluation: compute the dependency-closed *slice* of
// rules needed to materialize a set of Skolem functors, and run only
// that slice. This is the engine half of the mediator's query
// pushdown (§5 positions YAT as the conversion backbone of a
// mediator; a mediator exists precisely to avoid materializing the
// whole target per query).
//
// A slice has two parts:
//
//   - The construct set: every rule of every requested functor's
//     group, closed under head-tree dereferences (^F forces F's value
//     to exist at deref-expansion time). Groups are taken whole, so
//     the §4.2 most-specific-first blocking inside each group behaves
//     exactly as in a full run.
//
//   - The support set: rules that are not demanded but whose head
//     Skolem arguments may mint activations some slice rule matches
//     (the Web rules' recursion descends this way). Support rules run
//     phases 1–3 — enough to discover the activations they mint — but
//     construct nothing.
//
// Soundness of the restriction: every rule that can mint an
// activation matching a slice rule is itself in the slice (the
// support closure), so a slice rule sees exactly the activations it
// would see in a full run, in the same rounds and the same relative
// order. Its bindings, and therefore its constructed outputs, are
// byte-identical to the full run's. Rules outside the slice only mint
// activations no slice rule matches; omitting them loses nothing.
//
// The mint analysis classifies each head-reference variable argument:
//
//	identity (the body pattern variable)      → never a new activation
//	reference-domain leaf (&P)                → resolves through the
//	                                            input store, never new
//	label of an internal node, index variable,
//	kind/symbol-domain leaf                   → an atomic leaf input
//	anything else (let results, pattern-domain
//	or unrestricted leaves, body Skolem args)  → an arbitrary subtree
//
// Atomic mints only feed rules whose body could match a single leaf
// node; arbitrary mints conservatively feed every rule.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"yat/internal/pattern"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Slice is a dependency-closed set of rules sufficient to materialize
// a set of Skolem functors with full-run fidelity.
type Slice struct {
	// Functors are the requested functors, sorted and deduplicated
	// (empty requests every functor of the program).
	Functors []string
	// Closure are the functors whose groups the slice constructs,
	// sorted: the requested ones plus every functor reachable through
	// head-tree dereferences.
	Closure []string
	// Construct are the rules run in full (matching, evaluation and
	// construction), in declaration order.
	Construct []*yatl.Rule
	// Support are the rules run for activation discovery only, in
	// declaration order.
	Support []*yatl.Rule

	construct map[string]bool
	include   map[string]bool
}

// Rules returns the total number of rules in the slice.
func (s *Slice) Rules() int { return len(s.Construct) + len(s.Support) }

// Includes reports whether the named rule is in the slice.
func (s *Slice) Includes(rule string) bool { return s.include[rule] }

// Constructs reports whether the named rule's outputs are built.
func (s *Slice) Constructs(rule string) bool { return s.construct[rule] }

// String renders the slice for diagnostics and trace events.
func (s *Slice) String() string {
	funcs := "*"
	if len(s.Functors) > 0 {
		funcs = strings.Join(s.Functors, ",")
	}
	return fmt.Sprintf("functors=%s construct=%d support=%d", funcs, len(s.Construct), len(s.Support))
}

// SubProgram restricts a program to the slice's rules, preserving
// declaration order, models and order statements. Exception rules are
// never part of a slice: the §3.5 "everything converted" check is
// only meaningful for full runs. The slice-soundness argument (the
// construct rules' outputs are byte-identical to a full run's) makes
// the restriction a closed program in its own right — the federation
// planner runs one per shard as that child's whole world.
func (s *Slice) SubProgram(prog *yatl.Program) *yatl.Program {
	rules := make([]*yatl.Rule, 0, s.Rules())
	for _, r := range prog.Rules {
		if !r.Exception && s.include[r.Name] {
			rules = append(rules, r)
		}
	}
	return &yatl.Program{Name: prog.Name, Rules: rules, Models: prog.Models, Orders: prog.Orders}
}

// ComputeSlice computes the rule slice needed to materialize the
// given functors (none = all). Unknown functors contribute no rules.
// The analysis is purely syntactic and conservative: a slice may
// include more rules than strictly necessary, never fewer.
func ComputeSlice(prog *yatl.Program, functors ...string) *Slice {
	groups := map[string][]*yatl.Rule{}
	var order []string
	for _, r := range prog.Rules {
		if r.Exception {
			continue
		}
		f := r.Head.Functor
		if _, ok := groups[f]; !ok {
			order = append(order, f)
		}
		groups[f] = append(groups[f], r)
	}

	sl := &Slice{construct: map[string]bool{}, include: map[string]bool{}}
	sl.Functors = sortedUnique(functors)

	// Construct set: requested groups closed under head dereferences.
	needed := map[string]bool{}
	var work []string
	demand := func(f string) {
		if _, defined := groups[f]; defined && !needed[f] {
			needed[f] = true
			work = append(work, f)
		}
	}
	if len(functors) == 0 {
		for _, f := range order {
			demand(f)
		}
	} else {
		for _, f := range sl.Functors {
			demand(f)
		}
	}
	for len(work) > 0 {
		f := work[0]
		work = work[1:]
		for _, r := range groups[f] {
			if r.Head.Tree == nil {
				continue
			}
			for _, ref := range r.Head.Tree.PatternRefs() {
				if !ref.Ref {
					demand(ref.Name)
				}
			}
		}
	}

	// Support set: close over feeder groups until no group outside
	// the slice can mint an activation a slice rule matches. An empty
	// construct set needs no feeding at all.
	mints := map[string]mintSummary{}
	for _, rules := range groups {
		for _, r := range rules {
			mints[r.Name] = summarizeMints(r)
		}
	}
	supported := map[string]bool{}
	included := func(f string) bool { return needed[f] || supported[f] }
	for changed := len(needed) > 0; changed; {
		changed = false
		leafOK := false
		for _, f := range order {
			if !included(f) {
				continue
			}
			for _, r := range groups[f] {
				if ruleCanMatchLeaf(r) {
					leafOK = true
				}
			}
		}
		for _, f := range order {
			if included(f) {
				continue
			}
			for _, r := range groups[f] {
				m := mints[r.Name]
				if m.any || (m.atom && leafOK) {
					supported[f] = true
					changed = true
					break
				}
			}
		}
	}

	for _, f := range order {
		switch {
		case needed[f]:
			sl.Closure = append(sl.Closure, f)
			for _, r := range groups[f] {
				sl.construct[r.Name] = true
				sl.include[r.Name] = true
			}
		case supported[f]:
			for _, r := range groups[f] {
				sl.include[r.Name] = true
			}
		}
	}
	sort.Strings(sl.Closure)
	for _, r := range prog.Rules {
		if r.Exception || !sl.include[r.Name] {
			continue
		}
		if sl.construct[r.Name] {
			sl.Construct = append(sl.Construct, r)
		} else {
			sl.Support = append(sl.Support, r)
		}
	}
	return sl
}

// mintSummary classifies what new activations a rule's head Skolem
// arguments can mint.
type mintSummary struct {
	atom bool // some argument mints atomic leaf inputs
	any  bool // some argument mints arbitrary subtrees
}

// Classification of one head-reference variable argument.
const (
	mintNone = iota // identity or reference: never a new activation
	mintAtom        // always an atomic leaf value
	mintAny         // possibly an arbitrary subtree
)

func summarizeMints(r *yatl.Rule) mintSummary {
	var m mintSummary
	if r.Head.Tree == nil {
		return m
	}
	seen := map[string]bool{}
	for _, ref := range r.Head.Tree.PatternRefs() {
		for _, arg := range ref.Args {
			if !arg.IsVar || seen[arg.Var] {
				continue
			}
			seen[arg.Var] = true
			switch classifyArg(r, arg.Var) {
			case mintAtom:
				m.atom = true
			case mintAny:
				m.any = true
			}
		}
	}
	return m
}

// classifyArg determines the most general shape the variable can be
// bound to across the rule's bindings. Identity dominates: binding
// the body pattern variable re-activates the already-active input.
// Multiple binding sites take the most general class — under optional
// (star) branches a binding may bind the variable at only one site.
func classifyArg(r *yatl.Rule, v string) int {
	for _, bp := range r.Body {
		if bp.Var == v {
			return mintNone
		}
	}
	for _, l := range r.Lets {
		if l.Var == v {
			return mintAny
		}
	}
	cls := mintNone
	for _, bp := range r.Body {
		if c := classifySites(bp.Tree, v); c > cls {
			cls = c
		}
	}
	return cls
}

// classifySites scans one body pattern tree for binding sites of v
// and returns the most general class among them.
func classifySites(t *pattern.PTree, v string) int {
	if t == nil {
		return mintNone
	}
	cls := mintNone
	up := func(c int) {
		if c > cls {
			cls = c
		}
	}
	switch l := t.Label.(type) {
	case pattern.Var:
		if l.Name == v {
			switch {
			case len(t.Edges) > 0:
				// Internal variable: binds the node label, an atom.
				up(mintAtom)
			case l.Domain.IsRefPattern():
				// &P leaf: binds a reference; references resolve
				// through the input store and never mint.
			case len(l.Domain.Kinds) > 0 || len(l.Domain.Symbols) > 0:
				// Kind/symbol domains admit only leaf constants.
				up(mintAtom)
			default:
				up(mintAny)
			}
		}
	case pattern.PatRef:
		// Matching &P(...,v,...) binds v to an arbitrary minted value.
		for _, a := range l.Args {
			if a.IsVar && a.Var == v {
				up(mintAny)
			}
		}
	}
	for _, e := range t.Edges {
		if e.Index == v {
			up(mintAtom) // index variables bind integers
		}
		up(classifySites(e.To, v))
	}
	return cls
}

// ruleCanMatchLeaf reports whether some body pattern of the rule
// could match a single leaf node (the shape of an atomic minted
// activation). Conservative: an edge that requires a child (-> or
// -#I>) rules a pattern out; anything else is assumed matchable.
func ruleCanMatchLeaf(r *yatl.Rule) bool {
	for _, bp := range r.Body {
		if bp.Tree == nil {
			continue
		}
		required := false
		for _, e := range bp.Tree.Edges {
			if e.Occ == pattern.OccOne || e.Occ == pattern.OccIndex {
				required = true
				break
			}
		}
		if !required {
			return true
		}
	}
	return false
}

// RunSlice executes only the given slice of the program over the
// input store. The outputs of the construct rules are byte-identical
// to the same rules' outputs in a full run, fully dereferenced within
// the slice; references to functors outside the closure stay symbolic,
// exactly as in a full run's store, and are not warned about as
// dangling: a slice store is partial by design. A nil slice runs the full-program slice. The §3.4 safety
// check applies to the whole program, so a slice run fails exactly
// when the full run would fail the check.
func RunSlice(ctx context.Context, prog *yatl.Program, inputs *tree.Store, sl *Slice, opts ...Option) (*Result, error) {
	if sl == nil {
		sl = ComputeSlice(prog)
	}
	o := NewOptions(opts...)
	o.ctx = ctx
	if o.Trace != nil {
		start := time.Now()
		defer func() {
			o.Trace.Emit(trace.Event{Kind: trace.KindSliceComputed, Phase: trace.PhaseSlice,
				Count: sl.Rules(), Detail: sl.String(), Duration: time.Since(start)})
		}()
	}
	return execute(prog, inputs, o, sl)
}

func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	n := 0
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			out[n] = s
			n++
		}
	}
	return out[:n]
}
