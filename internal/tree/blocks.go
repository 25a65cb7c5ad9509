package tree

// Blocks hands out the nodes, child lists and Skolem-argument slices of
// trees built in bulk — a run's outputs, a wrapper's import —
// from shared arrays, so that a tree costs a few allocations rather
// than one per node and one per child list. Each kind of block starts
// at 16 elements and then grows with what the Blocks has handed out, by
// an eighth of it up to a cap, so the unused tail of the last block is
// about an eighth of what was built at most: a tree keeps its blocks
// alive, and doubling would let a small slice run pin a large tail. A
// builder that knows its tree's size without a walk (a table) reserves
// exactly one block of each.
//
// A node keeps its whole block alive, so a node the builder throws away
// (a placeholder, a scratch leaf) is made with New, or kept in memory of
// the builder's own, not here. The zero
// value is ready to use; a Blocks is not safe for concurrent use.
type Blocks struct {
	nodes []Node
	lists []*Node
	vals  []Value
	// out counts what each kind has handed out.
	nodesOut, listsOut, valsOut int
}

// The first block of each kind, and the caps of their growth: a full
// node block is 20 KiB, a list or value block 8 and 4 KiB.
const (
	firstBlock    = 16
	maxNodeBlock  = 512
	maxListBlock  = 1024
	maxValueBlock = 256
)

// Reserve starts a node block of exactly nodes nodes and a list block
// of exactly lists child pointers: a tree of known size then comes from
// one block of each.
func (b *Blocks) Reserve(nodes, lists int) {
	b.nodes = make([]Node, nodes)
	b.lists = make([]*Node, lists)
}

// Node returns a node labeled label whose children are children.
func (b *Blocks) Node(label Value, children []*Node) *Node {
	n := &carve(&b.nodes, &b.nodesOut, 1, maxNodeBlock)[0]
	n.Label, n.Children = label, children
	return n
}

// List returns an empty child list with room for n children; appending
// past n moves the list out of the block, never into a neighbour's.
func (b *Blocks) List(n int) []*Node {
	if n == 0 {
		return nil
	}
	return carve(&b.lists, &b.listsOut, n, maxListBlock)[:0]
}

// Values returns a slice of n values, all nil, to fill.
func (b *Blocks) Values(n int) []Value {
	return carve(&b.vals, &b.valsOut, n, maxValueBlock)
}

// carve cuts n elements off the front of *free, capped at n, and adds
// them to *out. When fewer than n are left it starts a new block of an
// eighth of *out, at least firstBlock and at most limit elements; a
// request larger than that block gets an array of its own.
func carve[T any](free *[]T, out *int, n, limit int) []T {
	*out += n
	if len(*free) < n {
		size := min(max(firstBlock, (*out-n)/8), limit)
		if n > size {
			return make([]T, n)
		}
		*free = make([]T, size)
	}
	s := (*free)[:n:n]
	*free = (*free)[n:]
	return s
}
