package engine

import (
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// A rule is compiled once per run into a plan, and phases 1–5 run over
// dense slot frames: every variable of the rule — body, let, index,
// Skolem argument, ordering criterion — gets a slot, and a binding in
// flight is a frame holding one value per slot, nil where the variable
// is unbound. Pattern nodes and edges carry what the matcher and the
// constructor would otherwise recompute at every visited node: the
// label's kind and slot, the domain, the Skolem argument slots, and
// whether a star edge's subtree binds anything.

// frame is a binding in flight: frame[s] is the value of the rule's
// slot s, nil while it is unbound.
type frame []tree.Value

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

// value resolves the operand in frame f; ok is false for an unbound
// variable.
func (o operand) value(f frame) (tree.Value, bool) {
	if o.slot < 0 {
		return o.konst, true
	}
	v := f[o.slot]
	return v, v != nil
}

// pnode is a body or ask pattern node compiled for matching.
type pnode struct {
	op    uint8
	label tree.Value     // opConst
	slot  int            // opVar
	dom   pattern.Domain // opVar
	pat   string         // opRef, opDeref: the pattern name
	args  []operand      // opRef: the Skolem arguments
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
	p := &pnode{}
	switch l := pt.Label.(type) {
	case pattern.Const:
		p.op, p.label = opConst, l.Value
	case pattern.Var:
		p.op, p.slot, p.dom = opVar, sl.of(l.Name), l.Domain
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

// binding materializes a frame of the plan as a Binding: the one place
// a frame becomes a map, where a match leaves the engine.
func (pl *PatternPlan) binding(f frame) Binding {
	b := make(Binding, len(f))
	for s, v := range f {
		if v != nil {
			b[pl.vars[s]] = v
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

// rulePlan is a rule compiled for a run.
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
}

type bodyPlan struct {
	root   *pnode
	slot   int
	domain string
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
