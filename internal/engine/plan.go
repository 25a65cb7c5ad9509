package engine

import (
	"slices"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// A rule is compiled once per program (Compile) into a plan, and phases 1–5 run over
// dense slot frames: every variable of the rule — body, let, index,
// Skolem argument, ordering criterion — gets a slot, and a binding in
// flight is a frame holding one value handle per slot, 0 where the
// variable is unbound. Pattern nodes and edges carry what the matcher
// and the constructor would otherwise recompute at every visited node:
// the label's kind and slot, the domain, the Skolem argument slots, and
// whether a star edge's subtree binds anything.

// frame is a binding in flight: frame[s] is the handle, in the values
// table the frame was made against, of the value of the rule's slot s,
// 0 while it is unbound. A frame holds no pointer, so the match stack
// and the frame slabs are cleared and copied without write barriers,
// and the collector does not scan them.
type frame []uint32

// values is the table a frame's handles index: handle h stands for
// vals[h], and vals[0] is the nil of an unbound slot. A run has one,
// and Matcher.Match one per call; it grows by the values matching,
// evaluation and index edges bind, less those of a failed match.
type values struct{ vals []tree.Value }

// reset empties the table, keeping the nil at handle 0.
func (t *values) reset() {
	clear(t.vals)
	t.vals = append(t.vals[:0], nil)
}

// truncate drops the values entered since the table held n.
func (t *values) truncate(n int) {
	clear(t.vals[n:])
	t.vals = t.vals[:n]
}

// add enters v and returns its handle.
func (t *values) add(v tree.Value) uint32 {
	t.vals = append(t.vals, v)
	return uint32(len(t.vals) - 1)
}

// same reports whether two bound handles stand for Equal values.
func (t *values) same(a, b uint32) bool { return a == b || t.vals[a].Equal(t.vals[b]) }

// merge adds src's bound slots to dst. Shared variables must agree
// ("the SN variable is used in both body patterns to indicate that the
// supplier name ... should be the same", §3.2); the result reports
// whether they do.
func (t *values) merge(dst, src frame) bool {
	for s, h := range src {
		if h == 0 {
			continue
		}
		if prev := dst[s]; prev != 0 {
			if !t.same(prev, h) {
				return false
			}
			continue
		}
		dst[s] = h
	}
	return true
}

// overlay is merge with src's values taking precedence: where both
// bind a slot to Equal values, dst takes src's.
func (t *values) overlay(dst, src frame) bool {
	for s, h := range src {
		if h == 0 {
			continue
		}
		if prev := dst[s]; prev != 0 && !t.same(h, prev) {
			return false
		}
		dst[s] = h
	}
	return true
}

// slots assigns dense indices to variable names in first-occurrence
// order. Rules and ask patterns have a handful of variables, so a scan
// beats a map.
type slots struct{ names []string }

func (sl *slots) of(name string) int {
	for i, n := range sl.names {
		if n == name {
			return i
		}
	}
	sl.names = append(sl.names, name)
	return len(sl.names) - 1
}

// The label kinds of a compiled pattern node.
const (
	opNone  uint8 = iota // unknown label: matches nothing
	opConst              // constant label
	opVar                // variable label (leaf: binds the subtree; inner: binds the label)
	opRef                // &P(args): a reference leaf
	opDeref              // ^P: an instance of P
)

// operand is a compiled variable-or-constant: a slot, or konst when
// slot is negative (Skolem arguments, let and predicate operands).
type operand struct {
	slot  int
	konst tree.Value
}

func (sl *slots) arg(a pattern.Arg) operand {
	if a.IsVar {
		return operand{slot: sl.of(a.Var)}
	}
	return operand{slot: -1, konst: a.Const}
}

func (sl *slots) operand(o yatl.Operand) operand {
	if o.IsVar {
		return operand{slot: sl.of(o.Var)}
	}
	return operand{slot: -1, konst: o.Const}
}

// value resolves the operand in frame f of table t; ok is false for an
// unbound variable.
func (o operand) value(t *values, f frame) (tree.Value, bool) {
	if o.slot < 0 {
		return o.konst, true
	}
	h := f[o.slot]
	return t.vals[h], h != 0
}

// pnode is a body or ask pattern node compiled for matching.
type pnode struct {
	op    uint8
	label tree.Value      // opConst
	slot  int             // opVar
	dom   *pattern.Domain // opVar: nil when unrestricted
	pat   string          // opRef, opDeref: the pattern name
	args  []operand       // opRef: the Skolem arguments
	edges []pedge
}

// pedge is a compiled pattern edge.
type pedge struct {
	// star is set for every edge but a one edge: it consumes a run of
	// children, each contributing alternatives.
	star bool
	// index is the slot of an index edge's position variable, -1 when
	// there is none.
	index int
	// hasVars reports whether a star edge's subtree binds variables (or
	// the edge is an index edge): only then does an empty run yield no
	// valuation.
	hasVars bool
	to      *pnode
}

func compileMatch(pt *pattern.PTree, sl *slots) *pnode {
	var p *pnode
	if l, ok := pt.Label.(pattern.Var); ok && !l.Domain.IsAny() {
		// The node and its domain in one allocation.
		v := &struct {
			pnode
			dom pattern.Domain
		}{dom: l.Domain}
		p = &v.pnode
		p.dom = &v.dom
	} else {
		p = &pnode{}
	}
	switch l := pt.Label.(type) {
	case pattern.Const:
		p.op, p.label = opConst, l.Value
	case pattern.Var:
		p.op, p.slot = opVar, sl.of(l.Name)
	case pattern.PatRef:
		p.op, p.pat = opDeref, l.Name
		if l.Ref {
			p.op = opRef
			for _, a := range l.Args {
				p.args = append(p.args, sl.arg(a))
			}
		}
	}
	if len(pt.Edges) > 0 {
		p.edges = make([]pedge, len(pt.Edges))
	}
	for i, e := range pt.Edges {
		pe := &p.edges[i]
		pe.star, pe.index = e.Occ != pattern.OccOne, -1
		pe.to = compileMatch(e.To, sl)
		if pe.star {
			pe.hasVars = len(e.To.Vars()) > 0 || e.Occ == pattern.OccIndex
		}
		if e.Occ == pattern.OccIndex && e.Index != "" {
			pe.index = sl.of(e.Index)
		}
	}
	return p
}

// PatternPlan is an ask pattern compiled for matching — the same plan
// the engine runs rule bodies through, with the pattern's variables as
// its slots. It is immutable and safe for concurrent use.
type PatternPlan struct {
	root *pnode
	vars []string // slot → variable name
}

// CompilePattern compiles a pattern for Matcher.Match.
func CompilePattern(pt *pattern.PTree) *PatternPlan {
	var sl slots
	root := compileMatch(pt, &sl)
	return &PatternPlan{root: root, vars: sl.names}
}

// binding materializes a frame of the plan, made against table t, as a
// Binding: the one place a frame becomes a map, where a match leaves
// the engine.
func (pl *PatternPlan) binding(t *values, f frame) Binding {
	b := make(Binding, len(f))
	for s, h := range f {
		if h != 0 {
			b[pl.vars[s]] = t.vals[h]
		}
	}
	return b
}

// hnode is a head pattern node compiled for construction.
type hnode struct {
	op    uint8
	label tree.Value // opConst
	slot  int        // opVar
	// ref is the head's pattern reference (opRef, opDeref), with args
	// its compiled Skolem arguments.
	ref   pattern.PatRef
	args  []operand
	edges []hedge
}

// hedge is a compiled head edge.
type hedge struct {
	occ pattern.Occ
	to  *hnode
	// part are the slots whose values split the group into one child
	// each (group, ordered and index edges), order the slots the
	// children are sorted by (ordered and index edges).
	part, order []int
}

func compileHead(pt *pattern.PTree, sl *slots) *hnode {
	h := &hnode{}
	switch l := pt.Label.(type) {
	case pattern.Const:
		h.op, h.label = opConst, l.Value
	case pattern.Var:
		h.op, h.slot = opVar, sl.of(l.Name)
	case pattern.PatRef:
		h.op, h.ref = opDeref, l
		if l.Ref {
			h.op = opRef
		}
		for _, a := range l.Args {
			h.args = append(h.args, sl.arg(a))
		}
	}
	if len(pt.Edges) > 0 {
		h.edges = make([]hedge, len(pt.Edges))
	}
	for i, e := range pt.Edges {
		he := &h.edges[i]
		he.occ, he.to = e.Occ, compileHead(e.To, sl)
		switch e.Occ {
		case pattern.OccGroup:
			he.part = sl.all(shallowVars(e.To))
		case pattern.OccOrdered:
			he.order = sl.all(e.OrderBy)
			he.part = append(append([]int(nil), he.order...), sl.all(shallowVars(e.To))...)
		case pattern.OccIndex:
			if e.Index != "" {
				he.order = []int{sl.of(e.Index)}
				he.part = he.order
			}
		}
	}
	return h
}

func (sl *slots) all(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = sl.of(n)
	}
	return out
}

// rulePlan is a rule compiled for its program's runs.
type rulePlan struct {
	rule *yatl.Rule
	vars []string // slot → variable name
	// bodies are the body patterns: the compiled tree, the slot of the
	// pattern variable naming the matched input, and the optional
	// pattern the input must conform to.
	bodies []bodyPlan
	lets   []letPlan
	preds  []predPlan
	// skolem are the head's Skolem arguments; head is nil for an
	// exception rule.
	skolem []operand
	head   *hnode
	// minted are the slots of the variable Skolem arguments of the
	// head's pattern references, in preorder: the values a binding
	// activates for the next round.
	minted []int
	// twin is 1 + the index of the match the rule shares with the rules
	// of the same body (a run's twins), 0 when it has none.
	twin int
}

type bodyPlan struct {
	root   *pnode
	slot   int
	domain string
}

// same reports whether two body patterns compile to the same plan:
// equal trees — ops, constant labels, slots, domains, pattern
// references and their arguments, edge kinds and index slots — the
// same slot for the body variable and the same body domain. Variable
// names do not enter a plan, and slots are numbered body-first, so the
// bodies of Web1 and Web6 are the same plan.
func (b *bodyPlan) same(o *bodyPlan) bool {
	return b.slot == o.slot && b.domain == o.domain && b.root.same(o.root)
}

func (p *pnode) same(q *pnode) bool {
	if p.op != q.op || p.slot != q.slot || p.pat != q.pat || !sameConst(p.label, q.label) || !sameDomain(p.dom, q.dom) ||
		len(p.args) != len(q.args) || len(p.edges) != len(q.edges) {
		return false
	}
	for i, a := range p.args {
		if a.slot != q.args[i].slot || !sameConst(a.konst, q.args[i].konst) {
			return false
		}
	}
	for i := range p.edges {
		e, f := &p.edges[i], &q.edges[i]
		if e.star != f.star || e.index != f.index || e.hasVars != f.hasVars || !e.to.same(f.to) {
			return false
		}
	}
	return true
}

// sameConst reports whether two constants, either possibly nil, are of
// one kind and Equal.
func sameConst(a, b tree.Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

// sameDomain reports whether two domains, nil for unrestricted, are
// written alike: the same kinds and symbols in the same order, pattern
// and reference flag.
func sameDomain(d, e *pattern.Domain) bool {
	if d == nil || e == nil {
		return d == e
	}
	return d.Pattern == e.Pattern && d.Ref == e.Ref && slices.Equal(d.Kinds, e.Kinds) && slices.Equal(d.Symbols, e.Symbols)
}

type letPlan struct {
	slot int
	fn   string
	args []operand
}

type predPlan struct {
	pred        yatl.Pred
	args        []operand // call form
	left, right operand   // comparison form
}

func compileRule(rule *yatl.Rule) *rulePlan {
	var sl slots
	rp := &rulePlan{rule: rule}
	for _, bp := range rule.Body {
		root := compileMatch(bp.Tree, &sl)
		rp.bodies = append(rp.bodies, bodyPlan{root: root, slot: sl.of(bp.Var), domain: bp.Domain})
	}
	for _, l := range rule.Lets {
		lp := letPlan{fn: l.Func}
		for _, o := range l.Args {
			lp.args = append(lp.args, sl.operand(o))
		}
		lp.slot = sl.of(l.Var)
		rp.lets = append(rp.lets, lp)
	}
	for _, p := range rule.Preds {
		pp := predPlan{pred: p}
		if p.IsCall() {
			for _, o := range p.Args {
				pp.args = append(pp.args, sl.operand(o))
			}
		} else {
			pp.left, pp.right = sl.operand(p.Left), sl.operand(p.Right)
		}
		rp.preds = append(rp.preds, pp)
	}
	for _, a := range rule.Head.Args {
		rp.skolem = append(rp.skolem, sl.arg(a))
	}
	if rule.Head.Tree != nil {
		rp.head = compileHead(rule.Head.Tree, &sl)
		for _, ref := range rule.Head.Tree.PatternRefs() {
			for _, a := range ref.Args {
				if a.IsVar {
					rp.minted = append(rp.minted, sl.of(a.Var))
				}
			}
		}
	}
	rp.vars = sl.names
	return rp
}
