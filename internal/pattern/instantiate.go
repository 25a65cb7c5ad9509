package pattern

import (
	"fmt"
	"strings"
	"sync"

	"yat/internal/tree"
)

// InstanceOf reports whether model inst is an instance of model gen:
// every pattern of inst must instantiate some pattern of gen (§2).
// On failure the error names the offending patterns.
func InstanceOf(inst, gen *Model) error {
	c := newChecker(inst, gen)
	var errs []string
	for _, p := range inst.Patterns() {
		if _, ok := c.someGeneral(p); !ok {
			errs = append(errs, fmt.Sprintf("pattern %s instantiates no pattern of the general model", p.Name))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("not an instance:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// PatternInstanceOf reports whether pattern instName of model inst is
// an instance of pattern genName of model gen.
func PatternInstanceOf(inst *Model, instName string, gen *Model, genName string) bool {
	p, ok := inst.Get(instName)
	if !ok {
		return false
	}
	q, ok := gen.Get(genName)
	if !ok {
		return false
	}
	return newChecker(inst, gen).patternInst(p, q)
}

// TreeInstanceOf reports whether pattern tree ti (interpreted in
// model inst) is an instance of pattern tree tg (interpreted in model
// gen). Either model may be nil when the corresponding tree contains
// no pattern references.
func TreeInstanceOf(inst *Model, ti *PTree, gen *Model, tg *PTree) bool {
	return newChecker(orEmpty(inst), orEmpty(gen)).treeInst(ti, tg)
}

// TreeInstanceOfLoose is TreeInstanceOf under rule-body conventions:
// a leaf variable with an unrestricted domain in the general tree
// matches ANY instance subtree (in rule bodies a bare variable such
// as `Data` binds the whole input). It is the relation used to order
// rules by specificity when building hierarchies (§4.2).
func TreeInstanceOfLoose(inst *Model, ti *PTree, gen *Model, tg *PTree) bool {
	c := newChecker(orEmpty(inst), orEmpty(gen))
	c.looseLeafVars = true
	return c.treeInst(ti, tg)
}

// Conforms reports whether the ground tree t (with references
// resolved in store) is an instance of pattern genName in model gen.
// It is the data-validation entry point ("typing on demand", §3.5).
// For repeated checks against the same store, use a
// ConformanceChecker, which caches results.
func Conforms(t *tree.Node, store *tree.Store, gen *Model, genName string) bool {
	return NewConformanceChecker(store, gen).Conforms(t, genName)
}

// ConformanceChecker validates ground trees against the patterns of a
// model, resolving references through a fixed store. It walks the data
// trees themselves — the answer is that of the ground model
// (StoreModel, GroundTree) without building it — and caches results per
// (node, pattern) pair, so per-binding domain checks during rule
// matching stay cheap. The store must not change while the checker is
// in use. The checker is safe for concurrent use: a mediator's
// concurrent asks share one checker through their matcher.
type ConformanceChecker struct {
	store *tree.Store
	gen   *Model

	mu    sync.RWMutex
	cache map[conformKey]bool

	// Test instrumentation, unset in the library: observe is told of
	// every reference a walk resolves, and cacheNestedTrue is the
	// unsound memo the oracle test must catch.
	observe         func(refEvent)
	cacheNestedTrue bool
}

type conformKey struct {
	node *tree.Node
	pat  string
}

// refEvent is what a walk did with one reference leaf.
type refEvent uint8

const (
	refDangling    refEvent = iota // the name is not in the store
	refAssumed                     // the target is under check on this path: a cycle
	refMemoHit                     // answered from the cache, nested in another target
	refNestedFalse                 // a nested target failed; its false is cached
)

// NewConformanceChecker returns a checker resolving references in
// store (which may be nil) against the patterns of gen.
func NewConformanceChecker(store *tree.Store, gen *Model) *ConformanceChecker {
	return &ConformanceChecker{store: store, gen: gen, cache: make(map[conformKey]bool)}
}

// Reset empties the cache and points the checker at store and gen, so
// one checker can serve run after run, and returns how many answers it
// dropped. It must not race a Conforms.
func (cc *ConformanceChecker) Reset(store *tree.Store, gen *Model) int {
	n := len(cc.cache)
	cc.store, cc.gen = store, gen
	if n > 1024 { // clearing keeps the map's size, and later Resets would pay for it
		cc.cache = make(map[conformKey]bool)
	} else {
		clear(cc.cache)
	}
	return n
}

// Conforms reports whether t is an instance of pattern genName. Two
// goroutines racing on an uncached pair both compute the (identical,
// deterministic) answer; the duplicated work is bounded and the cache
// stays consistent.
func (cc *ConformanceChecker) Conforms(t *tree.Node, genName string) bool {
	key := conformKey{node: t, pat: genName}
	if res, ok := cc.cached(key); ok {
		return res
	}
	res := false
	if q, ok := cc.gen.Get(genName); ok {
		w := groundWalk{cc: cc}
		res = w.branches(t, q)
	}
	cc.record(key, res)
	return res
}

func (cc *ConformanceChecker) cached(key conformKey) (res, ok bool) {
	cc.mu.RLock()
	res, ok = cc.cache[key]
	cc.mu.RUnlock()
	return res, ok
}

func (cc *ConformanceChecker) record(key conformKey, res bool) {
	cc.mu.Lock()
	cc.cache[key] = res
	cc.mu.Unlock()
}

// groundWalk is the ground-side twin of checker: it decides whether a
// data tree instantiates a pattern tree exactly as checker.treeInst
// decides it for GroundTree of that data, with the store standing in
// for the ground model. A data tree's labels are all constants and its
// edges all One, so only the general side's cases remain.
//
// Reference targets make the relation a greatest fixpoint, as in
// checker: a (target, pattern) pair under check on the path is assumed
// to hold. An answer reached with no assumption is exact and is cached;
// so is a false reached under assumptions, since assuming more can only
// turn answers true. A true reached under assumptions may rest on one
// that fails later and is never cached.
type groundWalk struct {
	cc     *ConformanceChecker
	assume []conformKey
}

func (w *groundWalk) branches(t *tree.Node, q *Pattern) bool {
	for _, tq := range q.Union {
		if w.tree(t, tq) {
			return true
		}
	}
	return false
}

func (w *groundWalk) tree(t *tree.Node, tg *PTree) bool {
	switch lg := tg.Label.(type) {
	case Const:
		return t.Label.Equal(lg.Value) && w.edges(t.Children, tg.Edges, 0, 0)

	case Var:
		if lg.Domain.Pattern != "" {
			dom, ok := w.cc.gen.Get(lg.Domain.Pattern)
			if !ok {
				return false
			}
			if !lg.Domain.Ref {
				return w.branches(t, dom)
			}
			ref, isRef := t.Label.(tree.Ref)
			return isRef && len(t.Children) == 0 && w.target(ref.Name, dom)
		}
		// Data variable: a constant of the domain. A minted reference is
		// not a constant of a restricted domain.
		if _, isRef := t.Label.(tree.Ref); isRef {
			if !lg.Domain.IsAny() {
				return false
			}
		} else if !lg.Domain.Contains(t.Label) {
			return false
		}
		return w.edges(t.Children, tg.Edges, 0, 0)

	case PatRef:
		dom, ok := w.cc.gen.Get(lg.Name)
		if !ok {
			return false
		}
		if !lg.Ref {
			return w.branches(t, dom) // ^P
		}
		ref, isRef := t.Label.(tree.Ref)
		return isRef && w.target(ref.Name, dom)
	}
	return false
}

// edges is checker.edgesInstAt with every instance edge a One edge:
// a One edge takes one child, a star-like edge a run of children that
// ends at the first child its target rejects.
func (w *groundWalk) edges(kids []*tree.Node, gs []Edge, ki, gi int) bool {
	if gi == len(gs) {
		return ki == len(kids)
	}
	g := gs[gi]
	if g.Occ == OccOne {
		return ki < len(kids) && w.tree(kids[ki], g.To) && w.edges(kids, gs, ki+1, gi+1)
	}
	for k := ki; ; k++ {
		if w.edges(kids, gs, k, gi+1) {
			return true
		}
		if k == len(kids) || !w.tree(kids[k], g.To) {
			return false
		}
	}
}

// target reports whether the tree the store binds to name instantiates
// dom (checker.patternInst of the entry's ground pattern).
func (w *groundWalk) target(name tree.Name, dom *Pattern) bool {
	var n *tree.Node
	ok := false
	if w.cc.store != nil {
		n, ok = w.cc.store.Get(name)
	}
	if !ok {
		w.cc.note(refDangling)
		return false
	}
	key := conformKey{node: n, pat: dom.Name}
	for _, a := range w.assume {
		if a == key {
			w.cc.note(refAssumed)
			return true
		}
	}
	nested := len(w.assume) > 0
	if res, ok := w.cc.cached(key); ok {
		if nested {
			w.cc.note(refMemoHit)
		}
		return res
	}
	w.assume = append(w.assume, key)
	res := w.branches(n, dom)
	w.assume = w.assume[:len(w.assume)-1]
	switch {
	case !nested || w.cc.cacheNestedTrue:
		w.cc.record(key, res)
	case !res:
		w.cc.note(refNestedFalse)
		w.cc.record(key, res)
	}
	return res
}

func (cc *ConformanceChecker) note(ev refEvent) {
	if cc.observe != nil {
		cc.observe(ev)
	}
}

func orEmpty(m *Model) *Model {
	if m == nil {
		return NewModel()
	}
	return m
}

// checker carries the two models and the coinductive assumption set.
// Recursive patterns (Pcar ↔ Psup, Ptype ↔ Pclass) make the relation
// a greatest fixpoint: a pattern pair currently being checked on the
// path is assumed to hold. Results are not memoized across union
// branches — a conclusion reached under an assumption that a sibling
// branch does not share would be unsound.
type checker struct {
	inst, gen     *Model
	inProgress    map[[2]string]bool
	looseLeafVars bool
}

// newChecker returns a checker with an empty assumption set. Its
// ground-data use, patternBranchesTree(GroundTree(t), q) over
// StoreModel(store), is the oracle of ConformanceChecker.
func newChecker(inst, gen *Model) *checker {
	return &checker{inst: inst, gen: gen, inProgress: make(map[[2]string]bool)}
}

// someGeneral finds a pattern of gen that p instantiates.
func (c *checker) someGeneral(p *Pattern) (*Pattern, bool) {
	for _, q := range c.gen.Patterns() {
		if c.patternInst(p, q) {
			return q, true
		}
	}
	return nil, false
}

// patternInst reports whether p (inst side) instantiates q (gen side):
// every union branch of p must instantiate some union branch of q.
func (c *checker) patternInst(p, q *Pattern) bool {
	key := [2]string{p.Name, q.Name}
	if c.inProgress[key] {
		return true // coinductive assumption
	}
	c.inProgress[key] = true
	defer delete(c.inProgress, key)
	for _, tp := range p.Union {
		if !c.patternBranchesTree(tp, q) {
			return false
		}
	}
	return true
}

func (c *checker) patternBranchesTree(ti *PTree, q *Pattern) bool {
	for _, tq := range q.Union {
		if c.treeInst(ti, tq) {
			return true
		}
	}
	return false
}

// treeInst reports whether pattern tree ti instantiates pattern tree tg.
func (c *checker) treeInst(ti, tg *PTree) bool {
	switch lg := tg.Label.(type) {
	case Const:
		li, ok := ti.Label.(Const)
		if !ok || !li.Value.Equal(lg.Value) {
			return false
		}
		return c.edgesInst(ti.Edges, tg.Edges)

	case Var:
		if lg.Domain.IsRefPattern() {
			// Reference variable: the instance must denote a reference
			// to an instance of the domain pattern.
			dom, ok := c.gen.Get(lg.Domain.Pattern)
			if !ok {
				return false
			}
			if len(ti.Edges) > 0 {
				return false
			}
			switch li := ti.Label.(type) {
			case Var:
				if !li.Domain.IsRefPattern() {
					return false
				}
				if li.Domain.Pattern == lg.Domain.Pattern {
					return true
				}
				sub, ok := c.inst.Get(li.Domain.Pattern)
				return ok && c.patternInst(sub, dom)
			case PatRef:
				if !li.Ref {
					return false
				}
				sub, ok := c.inst.Get(li.Name)
				return ok && c.patternInst(sub, dom)
			case Const:
				ref, isRef := li.Value.(tree.Ref)
				if !isRef {
					return false
				}
				sub, ok := c.inst.Get(ref.Name.Key())
				return ok && c.patternInst(sub, dom)
			}
			return false
		}
		if lg.Domain.IsPattern() {
			// Pattern variable: the whole instance subtree must be an
			// instance of the domain pattern. A variable instance must
			// have a domain that is the same pattern or a pattern
			// instance of it.
			dom, ok := c.gen.Get(lg.Domain.Pattern)
			if !ok {
				return false
			}
			if vi, isVar := ti.Label.(Var); isVar && len(ti.Edges) == 0 && vi.Domain.IsPattern() {
				if vi.Domain.Pattern == lg.Domain.Pattern {
					return true
				}
				sub, ok := c.inst.Get(vi.Domain.Pattern)
				return ok && c.patternInst(sub, dom)
			}
			if ri, isRef := ti.Label.(PatRef); isRef && !ri.Ref && len(ti.Edges) == 0 {
				sub, ok := c.inst.Get(ri.Name)
				return ok && c.patternInst(sub, dom)
			}
			if vi, isVar := ti.Label.(Var); isVar && len(ti.Edges) == 0 && vi.Domain.IsRefPattern() {
				// A reference variable instantiates a pattern domain
				// through the domain's &P branches (the Ptype/&Pclass
				// case: a &Psup-typed variable is a Ptype instance).
				sub, ok := c.inst.Get(vi.Domain.Pattern)
				if !ok {
					return false
				}
				for _, branch := range dom.Union {
					br, isBr := branch.Label.(PatRef)
					if !isBr || !br.Ref || len(branch.Edges) > 0 {
						continue
					}
					target, ok := c.gen.Get(br.Name)
					if ok && c.patternInst(sub, target) {
						return true
					}
				}
				return false
			}
			return c.patternBranchesTree(ti, dom)
		}
		if c.looseLeafVars && len(tg.Edges) == 0 && lg.Domain.IsAny() {
			// Rule-body convention: a bare leaf variable matches any
			// subtree.
			return true
		}
		// Data variable: instance label must be a constant in the
		// domain, or a variable with a subset domain. Edges still
		// instantiate structurally.
		switch li := ti.Label.(type) {
		case Const:
			if ref, isRef := li.Value.(tree.Ref); isRef {
				// A minted reference is not a constant of a data
				// variable's domain unless the domain is unrestricted.
				_ = ref
				if !lg.Domain.IsAny() {
					return false
				}
			} else if !lg.Domain.Contains(li.Value) {
				return false
			}
		case Var:
			if !li.Domain.SubsetOf(lg.Domain) {
				return false
			}
		default:
			return false
		}
		return c.edgesInst(ti.Edges, tg.Edges)

	case PatRef:
		if lg.Ref {
			// &P: the instance must also be a reference, either to a
			// pattern instance of P or a ground minted identity whose
			// tree instantiates P.
			dom, ok := c.gen.Get(lg.Name)
			if !ok {
				return false
			}
			switch li := ti.Label.(type) {
			case PatRef:
				if !li.Ref {
					return false
				}
				sub, ok := c.inst.Get(li.Name)
				return ok && c.patternInst(sub, dom)
			case Const:
				ref, isRef := li.Value.(tree.Ref)
				if !isRef {
					return false
				}
				sub, ok := c.inst.Get(ref.Name.Key())
				return ok && c.patternInst(sub, dom)
			case Var:
				if len(ti.Edges) > 0 || !li.Domain.IsRefPattern() {
					return false
				}
				sub, ok := c.inst.Get(li.Domain.Pattern)
				return ok && c.patternInst(sub, dom)
			}
			return false
		}
		// ^P: dereferencing. The instance is either a pattern-name
		// leaf whose pattern instantiates P, or a whole subtree that
		// instantiates P directly.
		dom, ok := c.gen.Get(lg.Name)
		if !ok {
			return false
		}
		if ri, isRef := ti.Label.(PatRef); isRef && !ri.Ref && len(ti.Edges) == 0 {
			sub, ok := c.inst.Get(ri.Name)
			return ok && c.patternInst(sub, dom)
		}
		if vi, isVar := ti.Label.(Var); isVar && vi.Domain.IsPattern() && len(ti.Edges) == 0 {
			sub, ok := c.inst.Get(vi.Domain.Pattern)
			return ok && c.patternInst(sub, dom)
		}
		return c.patternBranchesTree(ti, dom)
	}
	return false
}

// edgesInst matches the instance edge sequence fs against the general
// edge sequence gs: a One edge is replaced by exactly one One edge; a
// Star (or Group/Ordered/Index, which refine Star) edge is replaced
// by any ordered sequence of edges whose targets all instantiate its
// target. Classic backtracking over the two sequences.
func (c *checker) edgesInst(fs, gs []Edge) bool {
	return c.edgesInstAt(fs, gs, 0, 0)
}

func (c *checker) edgesInstAt(fs, gs []Edge, fi, gi int) bool {
	if gi == len(gs) {
		return fi == len(fs)
	}
	g := gs[gi]
	if g.Occ == OccOne {
		if fi == len(fs) {
			return false
		}
		f := fs[fi]
		if f.Occ != OccOne {
			return false
		}
		return c.treeInst(f.To, g.To) && c.edgesInstAt(fs, gs, fi+1, gi+1)
	}
	// Star-like: try consuming k = 0.. edges.
	for k := fi; k <= len(fs); k++ {
		okSoFar := true
		for j := fi; j < k; j++ {
			if !c.treeInst(fs[j].To, g.To) {
				okSoFar = false
				break
			}
		}
		if okSoFar && c.edgesInstAt(fs, gs, k, gi+1) {
			return true
		}
		if k < len(fs) && !c.treeInst(fs[k].To, g.To) {
			// Extending the run further cannot succeed.
			// (We still tried k first with the shorter run.)
			break
		}
	}
	return false
}
