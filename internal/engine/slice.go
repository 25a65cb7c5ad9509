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
	"slices"
	"sort"
	"strings"

	"yat/internal/pattern"
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

	// prog is the program sliced; scope is what a run of the slice
	// runs, in prog's rule positions and functor groups.
	prog *yatl.Program
	scope
}

// Rules returns the total number of rules in the slice.
func (s *Slice) Rules() int { return len(s.Construct) + len(s.Support) }

// Includes reports whether the named rule is in the slice.
func (s *Slice) Includes(rule string) bool {
	return s.Constructs(rule) || slices.ContainsFunc(s.Support, func(r *yatl.Rule) bool { return r.Name == rule })
}

// Constructs reports whether the named rule's outputs are built.
func (s *Slice) Constructs(rule string) bool {
	return slices.ContainsFunc(s.Construct, func(r *yatl.Rule) bool { return r.Name == rule })
}

// String renders the slice for diagnostics and trace events.
func (s *Slice) String() string {
	funcs := "*"
	if len(s.Functors) > 0 {
		funcs = strings.Join(s.Functors, ",")
	}
	return fmt.Sprintf("functors=%s construct=%d support=%d", funcs, len(s.Construct), len(s.Support))
}

// ComputeSlice computes the rule slice needed to materialize the
// given functors (none = all). Unknown functors contribute no rules.
// The analysis is purely syntactic and conservative: a slice may
// include more rules than strictly necessary, never fewer.
func ComputeSlice(prog *yatl.Program, functors ...string) *Slice {
	c, _ := Compile(prog)
	return c.computeSlice(functors)
}

// computeSlice is ComputeSlice over the compiled functor groups.
func (c *Compiled) computeSlice(functors []string) *Slice {
	h, rules := &c.hier, c.prog.Rules
	sl := &Slice{Functors: sortedUnique(functors), prog: c.prog}
	index := make(map[string]int, len(h.functors))
	for g, f := range h.functors {
		index[f] = g
	}

	// Construct set: requested groups closed under head dereferences.
	needed, supported := make([]bool, len(h.functors)), make([]bool, len(h.functors))
	var work []int
	demand := func(f string) {
		if g, defined := index[f]; defined && !needed[g] {
			needed[g] = true
			work = append(work, g)
		}
	}
	if len(functors) == 0 {
		for _, f := range h.functors {
			demand(f)
		}
	} else {
		for _, f := range sl.Functors {
			demand(f)
		}
	}
	for len(work) > 0 {
		for _, p := range h.groups[work[0]] {
			if t := rules[p].Head.Tree; t != nil {
				for _, ref := range t.PatternRefs() {
					if !ref.Ref {
						demand(ref.Name)
					}
				}
			}
		}
		work = work[1:]
	}

	// Support set: close over feeder groups until no group outside
	// the slice can mint an activation a slice rule matches. An empty
	// construct set needs no feeding at all.
	mints := make([]mintSummary, len(rules))
	for _, p := range c.all.rules {
		mints[p] = summarizeMints(rules[p])
	}
	included := func(g int) bool { return needed[g] || supported[g] }
	for changed := slices.Contains(needed, true); changed; {
		changed = false
		leafOK := false
		for g, group := range h.groups {
			if included(g) && slices.ContainsFunc(group, func(p int) bool { return ruleCanMatchLeaf(rules[p]) }) {
				leafOK = true
			}
		}
		for g, group := range h.groups {
			if !included(g) && slices.ContainsFunc(group, func(p int) bool { return mints[p].any || mints[p].atom && leafOK }) {
				supported[g], changed = true, true
			}
		}
	}

	for g, f := range h.functors {
		if included(g) {
			sl.groups = append(sl.groups, g)
		}
		if needed[g] {
			sl.Closure = append(sl.Closure, f)
		}
	}
	sort.Strings(sl.Closure)
	for _, p := range c.all.rules {
		switch r, g := rules[p], index[rules[p].Head.Functor]; {
		case needed[g]:
			sl.rules, sl.Construct = append(sl.rules, p), append(sl.Construct, r)
		case supported[g]:
			sl.rules, sl.Support = append(sl.rules, p), append(sl.Support, r)
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

// RunSlice compiles the program and runs the given slice of it
// (Compiled.RunSlice).
func RunSlice(ctx context.Context, prog *yatl.Program, inputs *tree.Store, sl *Slice, opts ...Option) (*Result, error) {
	c, _ := Compile(prog, opts...)
	return c.RunSlice(ctx, inputs, sl)
}

// sortedUnique returns the strings sorted, without repeats: nil for
// none.
func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}
