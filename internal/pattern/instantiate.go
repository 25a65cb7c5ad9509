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
// ConformanceChecker, which converts the store once and caches
// results.
func Conforms(t *tree.Node, store *tree.Store, gen *Model, genName string) bool {
	return NewConformanceChecker(store, gen).Conforms(t, genName)
}

// ConformanceChecker validates ground trees against the patterns of a
// model, resolving references through a fixed store. The store-to-
// ground-model conversion happens once and results are cached per
// (node, pattern) pair, so per-binding domain checks during rule
// matching stay cheap. The checker is safe for concurrent use: a
// mediator's concurrent asks share one checker through their matcher.
type ConformanceChecker struct {
	instM *Model
	gen   *Model

	mu    sync.RWMutex
	cache map[conformKey]bool
}

type conformKey struct {
	node *tree.Node
	pat  string
}

// NewConformanceChecker returns a checker resolving references in
// store (which may be nil) against the patterns of gen.
func NewConformanceChecker(store *tree.Store, gen *Model) *ConformanceChecker {
	instM := NewModel()
	if store != nil {
		instM = StoreModel(store)
	}
	return &ConformanceChecker{instM: instM, gen: gen, cache: make(map[conformKey]bool)}
}

// Conforms reports whether t is an instance of pattern genName. Two
// goroutines racing on an uncached pair both compute the (identical,
// deterministic) answer; the duplicated work is bounded and the cache
// stays consistent.
func (cc *ConformanceChecker) Conforms(t *tree.Node, genName string) bool {
	key := conformKey{node: t, pat: genName}
	cc.mu.RLock()
	res, ok := cc.cache[key]
	cc.mu.RUnlock()
	if ok {
		return res
	}
	res = false
	if q, ok := cc.gen.Get(genName); ok {
		res = newChecker(cc.instM, cc.gen).patternBranchesTree(GroundTree(t), q)
	}
	cc.mu.Lock()
	cc.cache[key] = res
	cc.mu.Unlock()
	return res
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
