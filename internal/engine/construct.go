package engine

import (
	"fmt"
	"sort"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// derefVal is the internal label of a placeholder node standing for a
// dereferenced Skolem (^P(args) in a head). The final dereferencing
// pass (§3.1: "dereferenciation is handled at the end of rules
// processing") replaces these with the named value.
type derefVal struct {
	Name tree.Name
}

func (derefVal) Kind() tree.Kind { return tree.KindRef }

func (d derefVal) Display() string { return "^" + d.Name.String() }

func (d derefVal) Equal(v tree.Value) bool {
	o, ok := v.(derefVal)
	return ok && o.Name.Equal(d.Name)
}

// NonDetError reports the non-determinism the paper warns about at
// run time: the same Skolem identity was associated with two distinct
// values (§3.1: "we accept potentially non-deterministic programs and
// alert the user at run time when the same pattern name is associated
// to two distinct values").
type NonDetError struct {
	Rule string
	OID  tree.Name
	Why  string
}

func (e *NonDetError) Error() string {
	return fmt.Sprintf("engine: non-deterministic program: rule %s, output %s: %s", e.Rule, e.OID, e.Why)
}

// constructor builds output trees from a compiled head and a group of
// frames that share the head's Skolem identity. A rule's groups are
// built one at a time by one constructor, oid naming the current one.
type constructor struct {
	plan *rulePlan
	oid  tree.Name
	buf  []byte
}

// construct builds the output tree for one Skolem group. The group
// must be non-empty.
func (c *constructor) construct(h *hnode, group []frame) (*tree.Node, error) {
	switch h.op {
	case opConst:
		return c.addEdges(tree.New(h.label), h.edges, group)

	case opVar:
		val, err := c.consistentValue(group, h.slot)
		if err != nil {
			return nil, err
		}
		if v, ok := val.(tree.TreeVal); ok {
			if len(h.edges) > 0 {
				return nil, &NonDetError{Rule: c.plan.rule.Name, OID: c.oid,
					Why: fmt.Sprintf("variable %s holds a subtree but labels an inner node", c.plan.vars[h.slot])}
			}
			return v.Root.Clone(), nil
		}
		return c.addEdges(tree.New(val), h.edges, group)

	case opRef, opDeref:
		oid, err := c.evalSkolem(h.ref.Name, h.args, group)
		if err != nil {
			return nil, err
		}
		if len(h.edges) > 0 {
			return nil, fmt.Errorf("engine: rule %s: pattern reference %s cannot have children in a head", c.plan.rule.Name, h.ref.Display())
		}
		if h.op == opRef {
			return tree.RefLeaf(oid), nil
		}
		return tree.New(derefVal{Name: oid}), nil
	}
	return nil, fmt.Errorf("engine: rule %s: unknown head label", c.plan.rule.Name)
}

// consistentValue returns the value of a slot, checking that the whole
// group agrees (a disagreement outside a grouping edge is the run-time
// non-determinism alert).
func (c *constructor) consistentValue(group []frame, slot int) (tree.Value, error) {
	val := group[0][slot]
	if val == nil {
		return nil, fmt.Errorf("engine: rule %s: head variable %s is unbound", c.plan.rule.Name, c.plan.vars[slot])
	}
	for _, f := range group[1:] {
		if other := f[slot]; other == nil || !other.Equal(val) {
			shown := "nothing"
			if other != nil {
				shown = other.Display()
			}
			return nil, &NonDetError{Rule: c.plan.rule.Name, OID: c.oid,
				Why: fmt.Sprintf("variable %s takes distinct values %s and %s", c.plan.vars[slot], val.Display(), shown)}
		}
	}
	return val, nil
}

// evalSkolem computes the Skolem identity functor(args) for the group
// (arguments must be consistent across the group).
func (c *constructor) evalSkolem(functor string, args []operand, group []frame) (tree.Name, error) {
	if len(args) == 0 {
		return tree.PlainName(functor), nil
	}
	vals := make([]tree.Value, len(args))
	for i, a := range args {
		if a.slot < 0 {
			vals[i] = a.konst
			continue
		}
		v, err := c.consistentValue(group, a.slot)
		if err != nil {
			return tree.Name{}, err
		}
		vals[i] = v
	}
	return tree.SkolemName(functor, vals...), nil
}

// addEdges constructs the children of a node according to the
// occurrence indicators (§3.1, §3.3):
//
//   - One: a single child; the whole group must agree on its value.
//   - Star: implicit grouping, duplicates kept, input order — one
//     child per binding.
//   - Group ({}): grouping with duplicate elimination, one child per
//     distinct projection of the variables under the edge.
//   - Ordered ([]crit): grouping + ordering — one child per distinct
//     projection, sorted by the criteria values.
//   - Index (#I): one child per distinct index value, sorted
//     numerically — array construction (Rule 5).
func (c *constructor) addEdges(n *tree.Node, edges []hedge, group []frame) (*tree.Node, error) {
	for i := range edges {
		e := &edges[i]
		switch e.occ {
		case pattern.OccOne:
			child, err := c.construct(e.to, group)
			if err != nil {
				return nil, err
			}
			n.Add(child)

		case pattern.OccStar:
			for j := range group {
				child, err := c.construct(e.to, group[j:j+1])
				if err != nil {
					return nil, err
				}
				n.Add(child)
			}

		case pattern.OccGroup, pattern.OccOrdered, pattern.OccIndex:
			if e.occ == pattern.OccIndex && e.part == nil {
				return nil, fmt.Errorf("engine: rule %s: index edge without variable", c.plan.rule.Name)
			}
			subgroups := c.partition(group, e.part)
			if e.order != nil {
				sort.SliceStable(subgroups, func(i, j int) bool {
					return lessByCriteria(subgroups[i][0], subgroups[j][0], e.order)
				})
			}
			for _, sg := range subgroups {
				child, err := c.construct(e.to, sg)
				if err != nil {
					return nil, err
				}
				n.Add(child)
			}
		}
	}
	return n, nil
}

// shallowVars collects the variables that determine a grouping edge's
// child: variables occurring in the subtree outside any nested
// collection edge. Variables appearing only below a nested grouping
// edge belong to the inner grouping (`cats -{}> cat < -> C, -{}> item
// -> N >` groups the outer level by C alone, nesting the items).
func shallowVars(t *pattern.PTree) []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	var walk func(pt *pattern.PTree)
	walk = func(pt *pattern.PTree) {
		switch l := pt.Label.(type) {
		case pattern.Var:
			add(l.Name)
		case pattern.PatRef:
			for _, a := range l.Args {
				if a.IsVar {
					add(a.Var)
				}
			}
		}
		for _, e := range pt.Edges {
			if e.Occ != pattern.OccOne {
				continue // nested collection: its vars group inside
			}
			walk(e.To)
		}
	}
	walk(t)
	return out
}

// partition splits the group by the values of the given slots,
// preserving first-occurrence order.
func (c *constructor) partition(group []frame, slots []int) [][]frame {
	if len(group) == 1 {
		return [][]frame{group}
	}
	ids := make([]int, len(group))
	index := map[string]int{}
	var sizes []int
	for i, f := range group {
		c.buf = appendFrameKey(c.buf[:0], f, slots)
		id, ok := index[string(c.buf)]
		if !ok {
			id = len(sizes)
			index[string(c.buf)] = id
			sizes = append(sizes, 0)
		}
		ids[i] = id
		sizes[id]++
	}
	return splitByID(group, ids, sizes)
}

// splitByID returns the frames grouped by ids[i] — a group number, or
// -1 to drop the frame — where sizes[g] frames fall in group g, each
// group in frame order. The groups share one backing array.
func splitByID(frames []frame, ids, sizes []int) [][]frame {
	out := make([][]frame, len(sizes))
	all := make([]frame, 0, len(frames))
	for g, n := range sizes {
		out[g] = all[len(all) : len(all) : len(all)+n]
		all = all[:len(all)+n]
	}
	for i, f := range frames {
		if g := ids[i]; g >= 0 {
			out[g] = append(out[g], f)
		}
	}
	return out
}

// lessByCriteria orders two frames by the values of the criteria slots
// (unbound values sort first).
func lessByCriteria(a, b frame, crit []int) bool {
	for _, s := range crit {
		av, bv := a[s], b[s]
		switch {
		case av == nil && bv == nil:
			continue
		case av == nil:
			return true
		case bv == nil:
			return false
		}
		if cmp := tree.Compare(av, bv); cmp != 0 {
			return cmp < 0
		}
	}
	return false
}
