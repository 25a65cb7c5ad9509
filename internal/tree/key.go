package tree

import (
	"encoding/binary"
	"strconv"
)

// AppendBinaryKey appends the binary key of v to dst: a kind tag (0 for
// nil), then the value's bytes behind their length as 4 little-endian
// bytes — a string's or symbol's own bytes, the decimal or display form
// of the other atoms, a reference's functor (behind its length as a
// uvarint) and arguments, a subtree's label, child count and children.
// Nothing is quoted or escaped.
//
// Two values share a key exactly when they are of one kind and display
// alike (trees compared node by node), at any depth of a tree or of a
// reference's arguments. Name.Key() tags the kind of a name's top-level
// arguments only, so key equality implies Name.Key() equality, and the
// two differ only on nested arguments of different kinds that display
// alike. It is the map key of the Store's index, of Skolem grouping and
// of the engine's dedup, join, activation and partition keys, looked up
// as m[string(key)] in a reused buffer so that only an insert
// allocates.
//
// The function recurses into itself only. Escape analysis records a
// parameter that reaches another function's result through mutual
// recursion as escaping, and dst would then drag every caller's stack
// buffer to the heap (Store lookups among them).
func AppendBinaryKey(dst []byte, v Value) []byte {
	if v == nil {
		return append(dst, 0)
	}
	dst = append(dst, byte(v.Kind())+1, 0, 0, 0, 0)
	at := len(dst)
	switch x := v.(type) {
	case String:
		dst = append(dst, x...)
	case Symbol:
		dst = append(dst, x...)
	case Int:
		dst = strconv.AppendInt(dst, int64(x), 10)
	case Float:
		dst = appendFloat(dst, float64(x))
	case Bool:
		dst = strconv.AppendBool(dst, bool(x))
	case Ref:
		dst = binary.AppendUvarint(dst, uint64(len(x.Name.Functor)))
		dst = append(dst, x.Name.Functor...)
		for _, a := range x.Name.Args {
			dst = AppendBinaryKey(dst, a)
		}
	case TreeVal:
		if n := x.Root; n != nil {
			dst = AppendBinaryKey(dst, n.Label)
			dst = binary.AppendUvarint(dst, uint64(len(n.Children)))
			for _, c := range n.Children {
				dst = AppendBinaryKey(dst, TreeVal{Root: c})
			}
		}
	default:
		// Value implementations outside this package (the engine's
		// dereference placeholder) only have the string form.
		dst = append(dst, v.Display()...)
	}
	binary.LittleEndian.PutUint32(dst[at-4:], uint32(len(dst)-at))
	return dst
}

// AppendBinaryKey appends the name's binary key to dst: the functor
// behind its length, then each argument's AppendBinaryKey. Names with
// equal keys identify the same entry of a Store, and are Equal.
func (n Name) AppendBinaryKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(n.Functor)))
	dst = append(dst, n.Functor...)
	for _, a := range n.Args {
		dst = AppendBinaryKey(dst, a)
	}
	return dst
}
