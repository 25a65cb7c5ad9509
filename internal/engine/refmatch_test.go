package engine

// The reference matcher: the tree-walking interpreter over Binding maps
// that the slot-compiled plans replaced, kept verbatim — only renamed,
// so it cannot collide with the plan's helpers, and with its typing
// checks decided over the store's ground model instead of by
// pattern.ConformanceChecker — as the oracle of TestPlanMatchesReference
// and the join tests. It is never built into the library.

import (
	"sort"
	"strings"
	"sync"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// Merge combines two bindings; shared variables must agree ("the SN
// variable is used in both body patterns to indicate that the
// supplier name ... should be the same", §3.2). The boolean reports
// whether the merge is consistent.
func (b Binding) Merge(other Binding) (Binding, bool) {
	out := b.Clone()
	for k, v := range other {
		if prev, ok := out[k]; ok {
			if !prev.Equal(v) {
				return nil, false
			}
			continue
		}
		out[k] = v
	}
	return out, true
}

// Project returns the canonical key of the binding restricted to the
// given variables. Unbound variables contribute a distinguished
// missing marker.
func (b Binding) Project(vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		val, ok := b[v]
		if !ok {
			sb.WriteString("·∅;")
			continue
		}
		sb.WriteString(val.Kind().String())
		sb.WriteByte(':')
		sb.WriteString(displayKey(val))
		sb.WriteByte(';')
	}
	return sb.String()
}

// refProduct merges every pair from as × bs, keeping consistent merges.
func refProduct(as, bs []Binding) []Binding {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	out := make([]Binding, 0, len(as))
	for _, a := range as {
		for _, b := range bs {
			if m, ok := a.Merge(b); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// refSharedVars returns the variables that occur in bindings of both
// sides (computed from representative elements — all bindings of one
// match list bind the same variables).
func refSharedVars(as, bs []Binding) []string {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	var out []string
	for v := range as[0] {
		if _, ok := bs[0][v]; ok {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// refHashJoin merges two binding lists on their shared variables. With
// no shared variables it degrades to the Cartesian product. This is
// the join used for multi-pattern rule bodies (Rule 3's heterogeneous
// join, experiment E5).
func refHashJoin(as, bs []Binding) []Binding {
	shared := refSharedVars(as, bs)
	if len(shared) == 0 {
		return refProduct(as, bs)
	}
	index := make(map[string][]Binding, len(bs))
	for _, b := range bs {
		k := b.Project(shared)
		index[k] = append(index[k], b)
	}
	var out []Binding
	for _, a := range as {
		for _, b := range index[a.Project(shared)] {
			if m, ok := a.Merge(b); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// refMatcher matches body pattern trees against ground data, producing
// the sets of variable bindings of rule phase 1 (§3.1). A star edge
// iterates: each child it covers yields one alternative binding, so a
// brochure with two suppliers produces two bindings for Rule 1
// (Figure 3).
type refMatcher struct {
	// Store resolves references when checking pattern-domain
	// conformance of subtrees. Optional.
	Store *tree.Store
	// Model resolves pattern-domain variables (e.g. P2 : Ptype).
	// When nil, or when the named pattern is undefined, the domain
	// check is skipped — typing in YAT "is in no way constraining"
	// (§3.5).
	Model *pattern.Model

	once sync.Once
	inst *pattern.Model // the store's ground model, built on first use
}

// conforms reports whether n is an instance of pattern pat the way the
// instantiation relation decides it over the store's ground model — a
// path of its own, so that the plan matcher's ConformanceChecker is
// compared against something it does not share.
func (m *refMatcher) conforms(n *tree.Node, pat string) bool {
	m.once.Do(func() {
		m.inst = pattern.NewModel()
		if m.Store != nil {
			m.inst = pattern.StoreModel(m.Store)
		}
	})
	p, ok := m.Model.Get(pat)
	if !ok {
		return false
	}
	g := pattern.GroundTree(n)
	for _, b := range p.Union {
		if pattern.TreeInstanceOf(m.inst, g, m.Model, b) {
			return true
		}
	}
	return false
}

// MatchTree returns all variable bindings under which tree n matches
// pattern pt. An empty result means no match.
func (m *refMatcher) MatchTree(pt *pattern.PTree, n *tree.Node) []Binding {
	return m.matchNode(pt, n)
}

// Matches reports whether the pattern matches at all.
func (m *refMatcher) Matches(pt *pattern.PTree, n *tree.Node) bool {
	return len(m.matchNode(pt, n)) > 0
}

func (m *refMatcher) matchNode(pt *pattern.PTree, n *tree.Node) []Binding {
	switch label := pt.Label.(type) {
	case pattern.Const:
		if !n.Label.Equal(label.Value) {
			return nil
		}
		return m.matchEdges(pt.Edges, n.Children)

	case pattern.Var:
		if len(pt.Edges) == 0 {
			// Leaf variable: binds the whole subtree — the label for
			// plain leaves, the reference for reference leaves, the
			// wrapped subtree otherwise.
			val := subtreeValue(n)
			if !m.domainAdmits(label.Domain, n, val) {
				return nil
			}
			return []Binding{{label.Name: val}}
		}
		// Internal variable: binds the node label only.
		if label.Domain.IsPattern() {
			return nil // pattern variables are leaves
		}
		if n.IsRef() {
			return nil // a reference leaf has no label to bind
		}
		if !label.Domain.IsAny() && !label.Domain.Contains(n.Label) {
			return nil
		}
		bs := m.matchEdges(pt.Edges, n.Children)
		return refBindAll(bs, label.Name, n.Label)

	case pattern.PatRef:
		if label.Ref {
			// &P(args): the input must be a reference leaf. If the
			// model defines P, the referenced tree must conform.
			name, ok := n.RefName()
			if !ok {
				return nil
			}
			if !m.conformsRef(name, label.Name) {
				return nil
			}
			return refMatchSkolemArgs(label, name)
		}
		// ^P: the subtree must be an instance of P (when checkable).
		if m.Model != nil {
			if _, defined := m.Model.Get(label.Name); defined {
				if !m.conforms(n, label.Name) {
					return nil
				}
			}
		}
		return []Binding{{}}
	}
	return nil
}

// domainAdmits checks a leaf variable's domain against the subtree.
func (m *refMatcher) domainAdmits(d pattern.Domain, n *tree.Node, val tree.Value) bool {
	if d.IsAny() {
		return true
	}
	if d.IsRefPattern() {
		// &P: the value must be a reference; its target must conform
		// when the pattern and store are known.
		name, isRef := n.RefName()
		if !isRef {
			return false
		}
		if m.Model == nil || m.Store == nil {
			return true
		}
		if _, defined := m.Model.Get(d.Pattern); !defined {
			return true
		}
		target, ok := m.Store.Get(name)
		if !ok {
			return false
		}
		return m.conforms(target, d.Pattern)
	}
	if d.IsPattern() {
		if m.Model == nil {
			return true
		}
		if _, defined := m.Model.Get(d.Pattern); !defined {
			return true
		}
		// A pattern domain may be satisfied through a reference (e.g.
		// P2 : Ptype matching &s1 because Ptype has the &Pclass
		// branch); the checker resolves it via the store model.
		return m.conforms(n, d.Pattern)
	}
	// Kind/symbol domains admit only leaf constants.
	if !n.IsLeaf() || n.IsRef() {
		return false
	}
	return d.Contains(val)
}

// conformsRef checks that the tree referenced by name conforms to
// pattern patName (skipped when unknown or untyped).
func (m *refMatcher) conformsRef(name tree.Name, patName string) bool {
	if m.Model == nil {
		return true
	}
	if _, defined := m.Model.Get(patName); !defined {
		return true
	}
	if m.Store == nil {
		return true
	}
	target, ok := m.Store.Get(name)
	if !ok {
		return false
	}
	return m.conforms(target, patName)
}

// refMatchSkolemArgs binds the argument variables of a &P(args) pattern
// against the Skolem name of the matched reference. Without
// arguments, any reference is accepted. With arguments, the reference
// must have been minted by the same functor with matching arity.
func refMatchSkolemArgs(ref pattern.PatRef, name tree.Name) []Binding {
	if len(ref.Args) == 0 {
		return []Binding{{}}
	}
	if name.Functor != ref.Name || len(name.Args) != len(ref.Args) {
		return nil
	}
	b := Binding{}
	for i, a := range ref.Args {
		v := name.Args[i]
		if a.IsVar {
			if prev, ok := b[a.Var]; ok {
				if !prev.Equal(v) {
					return nil
				}
				continue
			}
			b[a.Var] = v
			continue
		}
		if !a.Const.Equal(v) {
			return nil
		}
	}
	return []Binding{b}
}

func refBindAll(bs []Binding, name string, val tree.Value) []Binding {
	out := bs[:0]
	for _, b := range bs {
		if prev, ok := b[name]; ok {
			if !prev.Equal(val) {
				continue
			}
			out = append(out, b)
			continue
		}
		nb := b.Clone()
		nb[name] = val
		out = append(out, nb)
	}
	return out
}

// matchEdges matches the children sequence against the edge sequence.
// One edges consume exactly one child; star-like edges consume a
// contiguous run and iterate over it (each covered child contributes
// alternative bindings). Index edges additionally bind the child's
// 1-based position. Alternatives from different edges combine by
// consistent merge.
func (m *refMatcher) matchEdges(edges []pattern.Edge, kids []*tree.Node) []Binding {
	return m.matchEdgesAt(edges, kids, 0)
}

func (m *refMatcher) matchEdgesAt(edges []pattern.Edge, kids []*tree.Node, offset int) []Binding {
	if len(edges) == 0 {
		if len(kids) == 0 {
			return []Binding{{}}
		}
		return nil
	}
	e := edges[0]
	if e.Occ == pattern.OccOne {
		if len(kids) == 0 {
			return nil
		}
		head := m.matchNode(e.To, kids[0])
		if len(head) == 0 {
			return nil
		}
		rest := m.matchEdgesAt(edges[1:], kids[1:], offset+1)
		return refProduct(head, rest)
	}

	// Star-like edge: try run lengths 0..len(kids). Per-child match
	// lists are computed incrementally so each child is matched once.
	// When the star subtree binds variables, an empty run contributes
	// no valuation (a brochure without suppliers yields no binding
	// for SN, hence no output — classical total-valuation semantics);
	// a variable-free star is a pure structural constraint.
	hasVars := len(e.To.Vars()) > 0 || e.Occ == pattern.OccIndex
	var out []Binding
	childBindings := make([][]Binding, 0, len(kids))
	for k := 0; ; k++ {
		rest := m.matchEdgesAt(edges[1:], kids[k:], offset+k)
		if len(rest) > 0 {
			switch {
			case !hasVars:
				out = append(out, rest...)
			case k > 0:
				run := m.runBindings(e, childBindings, offset)
				out = append(out, refProduct(run, rest)...)
			}
		}
		if k == len(kids) {
			break
		}
		bs := m.matchNode(e.To, kids[k])
		if len(bs) == 0 {
			break // the run cannot be extended past a non-matching child
		}
		childBindings = append(childBindings, bs)
	}
	return out
}

// runBindings assembles the alternatives contributed by a star-like
// edge covering the children whose match lists are given. Index edges
// extend each alternative with the child position.
func (m *refMatcher) runBindings(e pattern.Edge, perChild [][]Binding, offset int) []Binding {
	var out []Binding
	for i, bs := range perChild {
		for _, b := range bs {
			nb := b
			if e.Occ == pattern.OccIndex && e.Index != "" {
				nb = b.Clone()
				nb[e.Index] = tree.Int(int64(offset + i + 1))
			}
			out = append(out, nb)
		}
	}
	return out
}
