package tree

import (
	"fmt"
	"strings"
)

// Node is one vertex of a ground YAT tree: a label and an ordered
// list of children. The zero value is not useful; construct nodes
// with New, the typed helpers below or Blocks.
//
// A tree is written only while it is built. Once an engine run, a
// wrapper or a parser returns it, nothing writes its nodes: a run's
// outputs share the subtrees a dereference inlines at several places,
// a mediator hands its cached trees to every reader, and the nodes of
// Blocks sit side by side in one array. To change a tree, Clone it.
type Node struct {
	Label    Value
	Children []*Node
}

// New returns a node with the given label and children.
func New(label Value, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Sym returns a symbol-labeled node.
func Sym(name string, children ...*Node) *Node {
	return New(Symbol(name), children...)
}

// Str returns a string-atom leaf.
func Str(s string) *Node { return New(String(s)) }

// IntLeaf returns an integer-atom leaf.
func IntLeaf(i int64) *Node { return New(Int(i)) }

// FloatLeaf returns a float-atom leaf.
func FloatLeaf(f float64) *Node { return New(Float(f)) }

// BoolLeaf returns a boolean-atom leaf.
func BoolLeaf(b bool) *Node { return New(Bool(b)) }

// RefLeaf returns a reference leaf pointing at the named tree.
func RefLeaf(name Name) *Node { return New(Ref{Name: name}) }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// IsRef reports whether the node is a reference leaf.
func (n *Node) IsRef() bool {
	_, ok := n.Label.(Ref)
	return ok
}

// RefName returns the referenced name if the node is a reference leaf.
func (n *Node) RefName() (Name, bool) {
	r, ok := n.Label.(Ref)
	if !ok {
		return Name{}, false
	}
	return r.Name, true
}

// Add appends children and returns the node, for fluent construction.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Label: n.Label}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Equal reports deep structural equality of two trees (labels and
// child order both significant, references compared by name).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if !n.Label.Equal(o.Label) {
		return false
	}
	if len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// CompareNode orders two trees: by label first, then lexicographically
// by children. It provides the total order used by ordered grouping
// over subtree-valued criteria.
func CompareNode(a, b *Node) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	if c := Compare(a.Label, b.Label); c != 0 {
		return c
	}
	for i := 0; i < len(a.Children) && i < len(b.Children); i++ {
		if c := CompareNode(a.Children[i], b.Children[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a.Children) < len(b.Children):
		return -1
	case len(a.Children) > len(b.Children):
		return 1
	}
	return 0
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Walk calls fn for every node in preorder. If fn returns false the
// children of that node are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Refs returns the names referenced anywhere in the subtree, in
// preorder, duplicates included.
func (n *Node) Refs() []Name {
	var out []Name
	n.Walk(func(m *Node) bool {
		if name, ok := m.RefName(); ok {
			out = append(out, name)
		}
		return true
	})
	return out
}

// Key returns a canonical string encoding of the subtree. Two trees
// have equal keys exactly when Equal reports true. It is used for
// duplicate elimination in grouping.
func (n *Node) Key() string {
	return string(n.AppendKey(make([]byte, 0, 128)))
}

// AppendKey appends the canonical encoding — the bytes of Key() — to
// dst.
func (n *Node) AppendKey(dst []byte) []byte {
	if n == nil {
		return append(dst, "·"...)
	}
	dst = append(dst, n.Label.Kind().String()...)
	dst = append(dst, ':')
	dst = AppendDisplay(dst, n.Label)
	if len(n.Children) > 0 {
		dst = append(dst, '(')
		for i, c := range n.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = c.AppendKey(dst)
		}
		dst = append(dst, ')')
	}
	return dst
}

// String renders the tree in the paper's concrete syntax:
//
//	label < child1, child2, ... >
//
// with brackets omitted for leaves.
func (n *Node) String() string {
	return string(n.appendString(make([]byte, 0, 128)))
}

func (n *Node) appendString(dst []byte) []byte { return AppendDisplay(dst, TreeVal{Root: n}) }

// Indent renders the tree one node per line with two-space
// indentation, which is easier to read for large trees.
func (n *Node) Indent() string {
	var b strings.Builder
	n.writeIndent(&b, 0)
	return b.String()
}

func (n *Node) writeIndent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	if n == nil {
		b.WriteString("<nil>\n")
		return
	}
	b.WriteString(n.Label.Display())
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.writeIndent(b, depth+1)
	}
}

// Dot renders the subtree in Graphviz DOT syntax. Names the root
// cluster with title when non-empty.
func Dot(roots []StoreEntry, title string) string {
	var b strings.Builder
	b.WriteString("digraph yat {\n  node [shape=box, fontname=\"monospace\"];\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q;\n", title)
	}
	id := 0
	var emit func(n *Node) int
	emit = func(n *Node) int {
		my := id
		id++
		fmt.Fprintf(&b, "  n%d [label=%q];\n", my, n.Label.Display())
		for _, c := range n.Children {
			child := emit(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", my, child)
		}
		return my
	}
	for _, e := range roots {
		root := id
		id++
		fmt.Fprintf(&b, "  n%d [label=%q, shape=plaintext];\n", root, e.Name.String()+":")
		child := emit(e.Tree)
		fmt.Fprintf(&b, "  n%d -> n%d [style=dotted];\n", root, child)
	}
	b.WriteString("}\n")
	return b.String()
}
