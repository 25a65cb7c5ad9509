// The leaf-path index: which entries of a group's bucket an ask with
// constant leaves can match at all.
//
// A pattern path is *usable* when it runs from the pattern's root over
// OccOne edges only, through pattern.Const labels only, down to a Const
// node with no edges. Such a path is a necessary condition for a match:
// a One edge consumes exactly one child, and a constant pattern leaf
// matches only a childless node (the matcher's matchEdges), so a
// matching tree carries the same labels on a root-to-leaf path. Nothing
// else is usable. Under a star-like edge (OccStar, OccGroup, OccOrdered,
// OccIndex) a constant need not occur: a variable-free star is a pure
// structural constraint that an empty run satisfies. Var and PatRef
// labels name no label to look up. A label hashLabel refuses (below)
// ends the path on both sides. A pattern with no usable path — `X`, a
// view pattern of variables — is handed the bucket itself.
//
// The index is a filter, never a matcher: it may hand over entries that
// do not match (hash collisions; child positions are ignored) and must
// never withhold one that does. doAsk matches whatever it is handed
// against the ask's compiled pattern, so answers are byte-identical
// with and without it.
package mediator

import (
	"math"
	"slices"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// pathIndex lists one ref per (constant root-to-leaf label path, bucket
// entry holding it): the path's hash in the high 32 bits, the entry's
// bucket position in the low 32. It is sorted, so the entries of one
// path are a contiguous run in bucket order. Eight bytes a ref, in one
// array: a lookup-sized group holds three leaf paths per entry, and
// per-node maps or per-path strings would not fit the heap bound. A
// 32-bit hash only adds candidates the matcher then refuses.
type pathIndex []uint64

// buildPathIndex indexes a bucket. Like the bucket it is derived once,
// when the group is built, and never changes.
func buildPathIndex(bucket []tree.StoreEntry) pathIndex {
	var refs []uint64
	for i, e := range bucket {
		refs = appendLeafPaths(refs, e.Tree, pathSeed, uint64(i))
	}
	slices.Sort(refs)
	// A tree may repeat a leaf; one ref per path and entry.
	return slices.Clone(slices.Compact(refs))
}

// appendLeafPaths appends a ref for every indexable root-to-leaf path
// of the subtree at n, h being the hash of the labels above it.
func appendLeafPaths(dst []uint64, n *tree.Node, h uint32, entry uint64) []uint64 {
	h, ok := hashLabel(h, n.Label)
	if !ok {
		return dst
	}
	if len(n.Children) == 0 {
		return append(dst, uint64(h)<<32|entry)
	}
	for _, c := range n.Children {
		dst = appendLeafPaths(dst, c, h, entry)
	}
	return dst
}

// appendUsablePaths appends the hash of every usable path (see the file
// comment) of the pattern at pt, h being the hash of the labels above.
func appendUsablePaths(dst []uint32, pt *pattern.PTree, h uint32) []uint32 {
	c, ok := pt.Label.(pattern.Const)
	if !ok {
		return dst
	}
	if h, ok = hashLabel(h, c.Value); !ok {
		return dst
	}
	if len(pt.Edges) == 0 {
		return append(dst, h)
	}
	for _, e := range pt.Edges {
		if e.Occ == pattern.OccOne {
			dst = appendUsablePaths(dst, e.To, h)
		}
	}
	return dst
}

// run returns the refs of the path hashed h. No bucket position is
// 1<<32 - 1, so the second search lands on the first ref of a later hash.
func (ix pathIndex) run(h uint32) pathIndex {
	lo, _ := slices.BinarySearch(ix, uint64(h)<<32)
	hi, _ := slices.BinarySearch(ix, uint64(h)<<32|math.MaxUint32)
	return ix[lo:hi]
}

// narrowest returns the shortest of the paths' runs: the refs of the
// pattern's most selective usable path. paths is not empty.
func (ix pathIndex) narrowest(paths []uint32) pathIndex {
	best := ix.run(paths[0])
	for _, h := range paths[1:] {
		if r := ix.run(h); len(r) < len(best) {
			best = r
		}
	}
	return best
}

// FNV-1a, 32 bits.
const (
	pathSeed  uint32 = 2166136261
	hashPrime uint32 = 16777619
)

func hashBytes(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * hashPrime
	}
	return h
}

// hashLabel folds one label into a path hash. The rule it must keep:
// a.Equal(b) implies equal hashes, or the index would withhold an entry
// the scan finds. Symbol, String, Int and Bool hash their kind and
// payload (x ≠ "x" and 1 ≠ true, as under Equal), Ref its name's key
// (Name.Equal is key equality). Float is refused: Float.Equal holds for
// -0.0 and 0.0 and for any two NaNs, whose bits and display forms
// differ. So are TreeVal and any Value implemented outside tree. No
// refused kind equals an admitted one, so a path cut short in a tree is
// cut short at the same label in every pattern that could match it.
func hashLabel(h uint32, v tree.Value) (uint32, bool) {
	h = (h ^ uint32(v.Kind())) * hashPrime
	switch x := v.(type) {
	case tree.Symbol:
		return hashBytes(h, string(x)), true
	case tree.String:
		return hashBytes(h, string(x)), true
	case tree.Int:
		h = (h ^ uint32(x)) * hashPrime
		return (h ^ uint32(x>>32)) * hashPrime, true
	case tree.Bool:
		if x {
			h++
		}
		return h, true
	case tree.Ref:
		return hashBytes(h, x.Name.Key()), true
	}
	return 0, false
}
