package engine

import (
	"sync"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// Matcher matches compiled patterns against ground data, producing the
// variable bindings of rule phase 1 (§3.1). A star edge iterates: each
// child it covers yields one alternative binding, so a brochure with
// two suppliers produces two bindings for Rule 1 (Figure 3).
type Matcher struct {
	// Store resolves references when checking pattern-domain
	// conformance of subtrees. Optional.
	Store *tree.Store
	// Model resolves pattern-domain variables (e.g. P2 : Ptype).
	// When nil, or when the named pattern is undefined, the domain
	// check is skipped — typing in YAT "is in no way constraining"
	// (§3.5).
	Model *pattern.Model

	once    sync.Once
	checker *pattern.ConformanceChecker // lazy, caches conformance results
}

// conformance returns the cached conformance checker (the store is
// fixed for the duration of a run, so the conversion happens once).
// A mediator's concurrent asks match through one shared Matcher, so
// both the lazy construction and the checker itself are
// goroutine-safe.
func (m *Matcher) conformance() *pattern.ConformanceChecker {
	m.once.Do(func() {
		m.checker = pattern.NewConformanceChecker(m.Store, m.Model)
	})
	return m.checker
}

// Match appends to dst one Binding per way tree n matches the plan's
// pattern, in match order. An ask compiles its pattern once and
// matches every candidate entry through it.
func (m *Matcher) Match(dst []Binding, pl *PatternPlan, n *tree.Node) []Binding {
	c := m.getCtx()
	c.reset(len(pl.vars))
	for i := c.matchNode(pl.root, n); i < c.top; i++ {
		dst = append(dst, pl.binding(c.frame(i)))
	}
	m.putCtx(c)
	return dst
}

// MatchTree returns all variable bindings under which tree n matches
// pattern pt. An empty result means no match.
func (m *Matcher) MatchTree(pt *pattern.PTree, n *tree.Node) []Binding {
	return m.Match(nil, CompilePattern(pt), n)
}

// Matches reports whether the pattern matches at all.
func (m *Matcher) Matches(pt *pattern.PTree, n *tree.Node) bool {
	return m.matches(CompilePattern(pt), n)
}

func (m *Matcher) matches(pl *PatternPlan, n *tree.Node) bool {
	c := m.getCtx()
	c.reset(len(pl.vars))
	ok := c.matchNode(pl.root, n) < c.top
	m.putCtx(c)
	return ok
}

// matchCtx is the scratch space of one match: a stack of frames, all
// of one width, where every step leaves its alternatives on top. A
// step returns the index of its first frame; it pushes scratch frames
// above its inputs and moves its results down over them, so nothing is
// allocated once the stack has grown to the largest match seen. A
// context serves one goroutine at a time.
type matchCtx struct {
	m    *Matcher
	w    int          // frame width: the plan's slot count
	top  int          // frames on the stack
	vals []tree.Value // the frames: top*w values
	// used is the high-water mark of vals, cleared when the context is
	// put back so that an idle context keeps no tree alive.
	used int
	// bounds holds, per star edge being matched, where each child's
	// list of alternatives starts on the stack.
	bounds []int
	// blocked is a run's scratch for the rules a match shadows (§4.2).
	blocked []string
}

var ctxPool = sync.Pool{New: func() any { return new(matchCtx) }}

func (m *Matcher) getCtx() *matchCtx {
	c := ctxPool.Get().(*matchCtx)
	c.m = m
	return c
}

func (m *Matcher) putCtx(c *matchCtx) {
	clear(c.vals[:c.used])
	c.vals, c.used, c.bounds, c.m = c.vals[:0], 0, c.bounds[:0], nil
	ctxPool.Put(c)
}

// reset empties the stack for frames of width w.
func (c *matchCtx) reset(w int) {
	c.w = w
	c.truncate(0)
}

func (c *matchCtx) frame(i int) frame {
	o := i * c.w
	return c.vals[o : o+c.w : o+c.w]
}

// push adds an all-unbound frame on top of the stack and returns it.
// It may move the stack: frames taken before a push are stale after.
func (c *matchCtx) push() frame {
	o := len(c.vals)
	c.vals = append(c.vals, make([]tree.Value, c.w)...)
	c.used = max(c.used, len(c.vals))
	c.top++
	return c.vals[o : o+c.w : o+c.w]
}

// pushCopy adds a copy of frame i on top of the stack and returns it.
func (c *matchCtx) pushCopy(i int) frame {
	o := len(c.vals)
	c.vals = append(c.vals, c.vals[i*c.w:(i+1)*c.w]...)
	c.used = max(c.used, len(c.vals))
	c.top++
	return c.vals[o : o+c.w : o+c.w]
}

func (c *matchCtx) truncate(top int) {
	c.top = top
	c.vals = c.vals[:top*c.w]
}

// keep moves the frames from src to the top down to dst and drops the
// rest: a step's results replace its scratch.
func (c *matchCtx) keep(dst, src int) {
	if dst != src {
		copy(c.vals[dst*c.w:], c.vals[src*c.w:])
	}
	c.truncate(dst + c.top - src)
}

// merge adds src's bound slots to dst. Shared variables must agree
// ("the SN variable is used in both body patterns to indicate that the
// supplier name ... should be the same", §3.2); the result reports
// whether they do.
func merge(dst, src frame) bool {
	for s, v := range src {
		if v == nil {
			continue
		}
		if prev := dst[s]; prev != nil {
			if !prev.Equal(v) {
				return false
			}
			continue
		}
		dst[s] = v
	}
	return true
}

// overlay is merge with src's values taking precedence: where both
// bind a slot to Equal values, dst takes src's.
func overlay(dst, src frame) bool {
	for s, v := range src {
		if v == nil {
			continue
		}
		if prev := dst[s]; prev != nil && !v.Equal(prev) {
			return false
		}
		dst[s] = v
	}
	return true
}

// join replaces the frames [lo, mid) and [mid, top) by the consistent
// merges of every pair, a-major — in place when either side is a
// single frame, as it mostly is along one edges.
func (c *matchCtx) join(lo, mid int) {
	hi := c.top
	switch {
	case hi-mid == 1:
		r := c.frame(mid)
		out := lo
		for i := lo; i < mid; i++ {
			if f := c.frame(i); merge(f, r) {
				if out != i {
					copy(c.frame(out), f)
				}
				out++
			}
		}
		c.truncate(out)
	case mid-lo == 1:
		a := c.frame(lo)
		out := mid
		for j := mid; j < hi; j++ {
			if f := c.frame(j); overlay(f, a) {
				if out != j {
					copy(c.frame(out), f)
				}
				out++
			}
		}
		c.truncate(out)
		c.keep(lo, mid)
	default:
		c.product(lo, mid, mid, hi, -1, nil)
		c.keep(lo, hi)
	}
}

// product pushes the consistent merges of every frame of [aLo, aHi)
// with every frame of [bLo, bHi), a-major. A non-negative index slot
// is set to pos in each a-frame's copy before the merge (the position
// an index edge binds).
func (c *matchCtx) product(aLo, aHi, bLo, bHi, index int, pos tree.Value) {
	for a := aLo; a < aHi; a++ {
		for b := bLo; b < bHi; b++ {
			f := c.pushCopy(a)
			if index >= 0 {
				f[index] = pos
			}
			if !merge(f, c.frame(b)) {
				c.truncate(c.top - 1)
			}
		}
	}
}

// bindAll binds slot to val in every frame from lo up, dropping the
// frames that bind it to something else.
func (c *matchCtx) bindAll(lo, slot int, val tree.Value) {
	out := lo
	for i := lo; i < c.top; i++ {
		f := c.frame(i)
		if prev := f[slot]; prev != nil && !prev.Equal(val) {
			continue
		}
		f[slot] = val
		if out != i {
			copy(c.frame(out), f)
		}
		out++
	}
	c.truncate(out)
}

// matchNode pushes the frames under which tree n matches p.
func (c *matchCtx) matchNode(p *pnode, n *tree.Node) int {
	lo := c.top
	switch p.op {
	case opConst:
		if n.Label.Equal(p.label) {
			c.matchEdges(p.edges, n.Children, 0)
		}

	case opVar:
		if len(p.edges) == 0 {
			// Leaf variable: binds the whole subtree — the label for
			// plain leaves, the reference for reference leaves, the
			// wrapped subtree otherwise.
			val := subtreeValue(n)
			if c.m.domainAdmits(p.dom, n, val) {
				c.push()[p.slot] = val
			}
			return lo
		}
		// Internal variable: binds the node label only. Pattern
		// variables are leaves, and a reference leaf has no label to
		// bind.
		if p.dom.IsPattern() || n.IsRef() || (!p.dom.IsAny() && !p.dom.Contains(n.Label)) {
			return lo
		}
		c.matchEdges(p.edges, n.Children, 0)
		c.bindAll(lo, p.slot, n.Label)

	case opRef:
		// &P(args): the input must be a reference leaf. If the model
		// defines P, the referenced tree must conform.
		if name, ok := n.RefName(); ok && c.m.conformsRef(name, p.pat) {
			c.matchSkolemArgs(p, name)
		}

	case opDeref:
		// ^P: the subtree must be an instance of P (when checkable).
		if c.m.Model != nil {
			if _, defined := c.m.Model.Get(p.pat); defined && !c.m.conformance().Conforms(n, p.pat) {
				return lo
			}
		}
		c.push()
	}
	return lo
}

// subtreeValue is the value a leaf variable binds when matched
// against node n.
func subtreeValue(n *tree.Node) tree.Value {
	if name, ok := n.RefName(); ok {
		return tree.Ref{Name: name}
	}
	if n.IsLeaf() {
		return n.Label
	}
	return tree.TreeVal{Root: n}
}

// domainAdmits checks a leaf variable's domain against the subtree.
func (m *Matcher) domainAdmits(d pattern.Domain, n *tree.Node, val tree.Value) bool {
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
		return m.conformance().Conforms(target, d.Pattern)
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
		return m.conformance().Conforms(n, d.Pattern)
	}
	// Kind/symbol domains admit only leaf constants.
	if !n.IsLeaf() || n.IsRef() {
		return false
	}
	return d.Contains(val)
}

// conformsRef checks that the tree referenced by name conforms to
// pattern patName (skipped when unknown or untyped).
func (m *Matcher) conformsRef(name tree.Name, patName string) bool {
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
	return m.conformance().Conforms(target, patName)
}

// matchSkolemArgs binds the argument variables of a &P(args) pattern
// against the Skolem name of the matched reference. Without
// arguments, any reference is accepted. With arguments, the reference
// must have been minted by the same functor with matching arity.
func (c *matchCtx) matchSkolemArgs(p *pnode, name tree.Name) {
	if len(p.args) == 0 {
		c.push()
		return
	}
	if name.Functor != p.pat || len(name.Args) != len(p.args) {
		return
	}
	f := c.push()
	for i, a := range p.args {
		v := name.Args[i]
		if a.slot < 0 {
			if !a.konst.Equal(v) {
				c.truncate(c.top - 1)
				return
			}
			continue
		}
		if prev := f[a.slot]; prev != nil && !prev.Equal(v) {
			c.truncate(c.top - 1)
			return
		}
		f[a.slot] = v
	}
}

// matchEdges matches the children sequence against the edge sequence.
// One edges consume exactly one child; star-like edges consume a
// contiguous run and iterate over it (each covered child contributes
// alternative bindings). Index edges additionally bind the child's
// 1-based position. Alternatives from different edges combine by
// consistent merge.
func (c *matchCtx) matchEdges(edges []pedge, kids []*tree.Node, offset int) int {
	lo := c.top
	if len(edges) == 0 {
		if len(kids) == 0 {
			c.push()
		}
		return lo
	}
	e := &edges[0]
	if !e.star {
		if len(kids) == 0 {
			return lo
		}
		if c.matchNode(e.to, kids[0]); c.top == lo {
			return lo
		}
		mid := c.top
		if c.matchEdges(edges[1:], kids[1:], offset+1); c.top == mid {
			c.truncate(lo)
			return lo
		}
		c.join(lo, mid)
		return lo
	}

	// Star-like edge: run lengths 0..K, where child K is the first that
	// does not match (the run cannot be extended past it) or K is
	// len(kids). A child's alternatives do not depend on the rest of
	// the match, so all of them are matched once, up front. When the
	// star subtree binds variables, an empty run contributes no
	// valuation (a brochure without suppliers yields no binding for SN,
	// hence no output — classical total-valuation semantics); a
	// variable-free star is a pure structural constraint.
	b0 := len(c.bounds)
	c.bounds = append(c.bounds, lo)
	for k := 0; k < len(kids); k++ {
		if c.matchNode(e.to, kids[k]); c.top == c.bounds[len(c.bounds)-1] {
			break
		}
		c.bounds = append(c.bounds, c.top)
	}
	matched := len(c.bounds) - b0 - 1
	out := c.top
	for k := 0; k <= matched; k++ {
		rest := c.top
		if c.matchEdges(edges[1:], kids[k:], offset+k); c.top == rest {
			continue
		}
		switch {
		case !e.hasVars:
			// The rest's alternatives are this run's, already in place.
		case k > 0:
			hi := c.top
			for i := 0; i < k; i++ {
				var pos tree.Value
				if e.index >= 0 {
					pos = tree.Int(int64(offset + i + 1))
				}
				c.product(c.bounds[b0+i], c.bounds[b0+i+1], rest, hi, e.index, pos)
			}
			c.keep(rest, hi)
		default:
			c.truncate(rest)
		}
	}
	c.bounds = c.bounds[:b0]
	c.keep(lo, out)
	return lo
}
