package engine

import (
	"fmt"
	"sort"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// derefVal is the internal label of a placeholder node standing for a
// dereferenced Skolem (^P(args) in a head), as a *derefVal: a pointer
// boxes into a tree.Value without an allocation. The final
// dereferencing pass (§3.1: "dereferenciation is handled at the end of
// rules processing") replaces these with the named value.
type derefVal struct {
	Name tree.Name
}

func (*derefVal) Kind() tree.Kind { return tree.KindRef }

func (d *derefVal) Display() string { return "^" + d.Name.String() }

func (d *derefVal) Equal(v tree.Value) bool {
	o, ok := v.(*derefVal)
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
// Nodes, child lists and the arguments of the names they mint come
// from the run's blocks; a ^P(args) placeholder node, which the
// dereferencing pass throws away, comes from the run's scratch nodes.
type constructor struct {
	plan   *rulePlan
	tab    *values // the table the frames' handles index
	blocks *tree.Blocks
	nodes  *nodeSlab
	oid    tree.Name
	buf    []byte
	// parts stacks the partitions of the grouping edges being built;
	// args is skolemArgs' scratch.
	parts [][][]frame
	args  []tree.Value
	// oidKeys keys a rule's groups, numbered as oids names them, and
	// keys a partition's; ids and sizes group the frames of either.
	// splitByID cuts the groups from two stacks.
	oidKeys, keys keySet
	ids, sizes    []int
	oids          []tree.Name
	groups        [][]frame
	frames        []frame
}

// construct builds the output tree for one Skolem group. The group
// must be non-empty.
func (c *constructor) construct(h *hnode, group []frame) (*tree.Node, error) {
	switch h.op {
	case opConst:
		return c.addEdges(c.blocks.Node(h.label, nil), h.edges, group)

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
		return c.addEdges(c.blocks.Node(val, nil), h.edges, group)

	case opRef, opDeref:
		oid, err := c.evalSkolem(h.ref.Name, h.args, group)
		if err != nil {
			return nil, err
		}
		if len(h.edges) > 0 {
			return nil, fmt.Errorf("engine: rule %s: pattern reference %s cannot have children in a head", c.plan.rule.Name, h.ref.Display())
		}
		if h.op == opRef {
			return c.blocks.Node(tree.Ref{Name: oid}, nil), nil
		}
		return c.nodes.placeholder(oid), nil
	}
	return nil, fmt.Errorf("engine: rule %s: unknown head label", c.plan.rule.Name)
}

// consistentValue returns the value of a slot, checking that the whole
// group agrees (a disagreement outside a grouping edge is the run-time
// non-determinism alert).
func (c *constructor) consistentValue(group []frame, slot int) (tree.Value, error) {
	h := group[0][slot]
	if h == 0 {
		return nil, fmt.Errorf("engine: rule %s: head variable %s is unbound", c.plan.rule.Name, c.plan.vars[slot])
	}
	val := c.tab.vals[h]
	for _, f := range group[1:] {
		if other := f[slot]; other != h && (other == 0 || !c.tab.vals[other].Equal(val)) {
			shown := "nothing"
			if other != 0 {
				shown = c.tab.vals[other].Display()
			}
			return nil, &NonDetError{Rule: c.plan.rule.Name, OID: c.oid,
				Why: fmt.Sprintf("variable %s takes distinct values %s and %s", c.plan.vars[slot], val.Display(), shown)}
		}
	}
	return val, nil
}

// skolemArgs returns the values of a Skolem identity's arguments in
// frame f, in a scratch slice that the next call reuses; ok is false
// when one is unbound.
func (c *constructor) skolemArgs(args []operand, f frame) ([]tree.Value, bool) {
	c.args = c.args[:0]
	for _, a := range args {
		v, ok := a.value(c.tab, f)
		if !ok {
			return nil, false
		}
		c.args = append(c.args, v)
	}
	return c.args, true
}

// evalSkolem computes the Skolem identity functor(args) for the group
// (arguments must be consistent across the group). The arguments come
// from the blocks.
func (c *constructor) evalSkolem(functor string, args []operand, group []frame) (tree.Name, error) {
	if len(args) == 0 {
		return tree.PlainName(functor), nil
	}
	vals := c.blocks.Values(len(args))
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
//
// The grouping edges are partitioned first, so the node's child count
// is known and its child list is cut from the blocks once.
func (c *constructor) addEdges(n *tree.Node, edges []hedge, group []frame) (*tree.Node, error) {
	if len(edges) == 0 {
		return n, nil
	}
	// c.parts is a stack: this call's partitions sit from base up, and
	// the nested calls push and pop theirs above them.
	base, groups, frames, size := len(c.parts), len(c.groups), len(c.frames), 0
	for i := range edges {
		e := &edges[i]
		switch e.occ {
		case pattern.OccOne:
			size++
		case pattern.OccStar:
			size += len(group)
		default:
			var subgroups [][]frame
			// An index edge without a variable is reported in order below.
			if e.occ != pattern.OccIndex || e.part != nil {
				subgroups = c.partition(group, e.part)
			}
			if e.order != nil {
				sort.SliceStable(subgroups, func(i, j int) bool {
					return lessByCriteria(c.tab, subgroups[i][0], subgroups[j][0], e.order)
				})
			}
			c.parts = append(c.parts, subgroups)
			size += len(subgroups)
		}
	}
	n.Children = c.blocks.List(size)
	err := c.addChildren(n, edges, group, base)
	c.parts, c.groups, c.frames = c.parts[:base], c.groups[:groups], c.frames[:frames]
	if err != nil {
		return nil, err
	}
	return n, nil
}

// addChildren constructs the edges' children into n, taking the
// grouping edges' partitions from c.parts, starting at next.
func (c *constructor) addChildren(n *tree.Node, edges []hedge, group []frame, next int) error {
	for i := range edges {
		e := &edges[i]
		switch e.occ {
		case pattern.OccOne:
			child, err := c.construct(e.to, group)
			if err != nil {
				return err
			}
			n.Children = append(n.Children, child)

		case pattern.OccStar:
			for j := range group {
				child, err := c.construct(e.to, group[j:j+1])
				if err != nil {
					return err
				}
				n.Children = append(n.Children, child)
			}

		case pattern.OccGroup, pattern.OccOrdered, pattern.OccIndex:
			if e.occ == pattern.OccIndex && e.part == nil {
				return fmt.Errorf("engine: rule %s: index edge without variable", c.plan.rule.Name)
			}
			subgroups := c.parts[next]
			next++
			for _, sg := range subgroups {
				child, err := c.construct(e.to, sg)
				if err != nil {
					return err
				}
				n.Children = append(n.Children, child)
			}
		}
	}
	return nil
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
		c.groups = append(c.groups, group)
		return c.groups[len(c.groups)-1:]
	}
	c.keys.reset()
	c.ids, c.sizes = c.ids[:0], c.sizes[:0]
	for _, f := range group {
		c.buf = appendFrameKey(c.buf[:0], c.tab, f, slots)
		id, fresh := c.keys.add(c.buf)
		if fresh {
			c.sizes = append(c.sizes, 0)
		}
		c.ids = append(c.ids, id)
		c.sizes[id]++
	}
	return c.splitByID(group, c.ids, c.sizes)
}

// splitByID returns the frames grouped by ids[i] — a group number, or
// -1 to drop the frame — where sizes[g] frames fall in group g, each
// group in frame order. The groups are cut from the tops of c.groups
// and c.frames, which addEdges pops.
func (c *constructor) splitByID(frames []frame, ids, sizes []int) [][]frame {
	g0, f0 := len(c.groups), len(c.frames)
	c.groups = append(c.groups, make([][]frame, len(sizes))...)
	c.frames = append(c.frames, make([]frame, len(frames))...)
	out, all := c.groups[g0:], c.frames[f0:f0]
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

// lessByCriteria orders two frames of table t by the values of the
// criteria slots (unbound values sort first).
func lessByCriteria(t *values, a, b frame, crit []int) bool {
	for _, s := range crit {
		av, bv := t.vals[a[s]], t.vals[b[s]]
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
