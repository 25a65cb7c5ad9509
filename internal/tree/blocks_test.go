package tree

import (
	"slices"
	"testing"
)

// TestBlocksKeepNeighboursApart checks that what Blocks hands out
// never overlaps: a list appended past its room moves out of the block,
// and each node and value slice is its own.
func TestBlocksKeepNeighboursApart(t *testing.T) {
	var b Blocks
	first, second := b.List(2), b.List(2)
	first = append(first, Str("a"), Str("b"), Str("c")) // past its room
	second = append(second, Str("x"), Str("y"))
	if got := New(Symbol("l"), first...).String(); got != `l < "a", "b", "c" >` {
		t.Errorf("first list = %s", got)
	}
	if got := New(Symbol("l"), second...).String(); got != `l < "x", "y" >` {
		t.Errorf("second list = %s", got)
	}
	a, c := b.Node(Symbol("a"), nil), b.Node(Symbol("c"), second)
	if a == c || a.Label != Symbol("a") || len(a.Children) != 0 || len(c.Children) != 2 {
		t.Errorf("nodes overlap: %s, %s", a, c)
	}
	u, v := b.Values(2), b.Values(1)
	u[0], u[1], v[0] = Int(1), Int(2), Int(3)
	if u[1] != Int(2) || cap(u) != 2 || cap(v) != 1 {
		t.Errorf("value slices overlap: %v %v", u, v)
	}
	if b.List(0) != nil {
		t.Error("an empty list takes room")
	}
}

// TestBlocksGrowWithUse checks the block sizes: 16 first, then an
// eighth of what was handed out up to the cap, so the unused tail stays
// within an eighth of what was built; a larger request gets an array of
// its own, and Reserve is exact.
func TestBlocksGrowWithUse(t *testing.T) {
	for _, n := range []int{1, 17, 100, 500, 2000, 20000} {
		var b Blocks
		var sizes []int
		for i := 0; i < n; i++ {
			fresh := len(b.nodes) == 0
			b.Node(Symbol("n"), nil)
			if fresh {
				sizes = append(sizes, len(b.nodes)+1)
			}
		}
		if sizes[0] != firstBlock || slices.Max(sizes) > maxNodeBlock {
			t.Errorf("%d nodes: blocks %v, want 16 first and none past %d", n, sizes, maxNodeBlock)
		}
		if tail := len(b.nodes); tail > max(firstBlock, n/8) {
			t.Errorf("%d nodes: %d left unused in blocks %v", n, tail, sizes)
		}
	}
	var b Blocks
	free := len(b.lists)
	if big := b.List(maxListBlock + 1); cap(big) != maxListBlock+1 || len(b.lists) != free {
		t.Errorf("an oversized list came from the block: cap %d, block %d → %d", cap(big), free, len(b.lists))
	}
	b.Reserve(3, 5)
	b.Node(Symbol("a"), b.List(5))
	b.Node(Symbol("b"), nil)
	b.Node(Symbol("c"), nil)
	if len(b.nodes) != 0 || len(b.lists) != 0 {
		t.Errorf("reserved blocks left %d nodes and %d pointers", len(b.nodes), len(b.lists))
	}
}
