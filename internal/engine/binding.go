package engine

import (
	"hash/maphash"
	"sort"
	"strings"

	"yat/internal/tree"
)

// Binding maps variable names to the values they were bound to during
// pattern matching. Values are atoms and symbols for data variables,
// tree.Ref for pattern variables bound to named inputs, and
// tree.TreeVal for pattern variables bound to anonymous subtrees.
//
// Inside a run a binding is a frame of its rule's plan; a Binding is
// built only where a match leaves the engine (Matcher.Match, and so
// every mediator answer).
type Binding map[string]tree.Value

// displayKey returns an injective string for the value (trees use the
// canonical Key encoding rather than the display form).
func displayKey(v tree.Value) string {
	if tv, ok := v.(tree.TreeVal); ok {
		return tv.Root.Key()
	}
	return v.Display()
}

// Key returns a canonical key over all variables of the binding.
func (b Binding) Key() string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for _, v := range vars {
		sb.WriteString(v)
		sb.WriteByte('=')
		sb.WriteString(displayKey(b[v]))
		sb.WriteByte(';')
	}
	return sb.String()
}

// String renders the binding deterministically, for diagnostics.
func (b Binding) String() string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = v + "=" + b[v].Display()
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

// appendFrameKey appends the key of the frame's slots — all of them
// when slots is nil — as the concatenation of their values' tree binary
// keys (an unbound slot is a 0 byte). Dedup, join and partition keys
// are these, looked up as m[string(key)] in a reused buffer.
func appendFrameKey(dst []byte, t *values, f frame, slots []int) []byte {
	if slots == nil {
		for _, h := range f {
			dst = tree.AppendBinaryKey(dst, t.vals[h])
		}
		return dst
	}
	for _, s := range slots {
		dst = tree.AppendBinaryKey(dst, t.vals[f[s]])
	}
	return dst
}

// frameSlab cuts the frames a run keeps — matches and join results —
// out of shared blocks. The blocks a run used go back zeroed to the
// free list, for the next run.
type frameSlab struct {
	buf        []uint32
	off, words int // words counts the handles of every block
	used, free [][]uint32
}

// take returns an all-unbound frame of width w.
func (s *frameSlab) take(w int) frame {
	if len(s.buf)-s.off < w {
		if n := len(s.free); n > 0 && len(s.free[n-1]) >= w {
			s.buf, s.free = s.free[n-1], s.free[:n-1]
		} else {
			s.buf = make([]uint32, max(64*w, 256))
			s.words += len(s.buf)
		}
		s.used, s.off = append(s.used, s.buf), 0
	}
	f := s.buf[s.off : s.off+w : s.off+w]
	s.off += w
	return f
}

// untake returns the frame take just gave out.
func (s *frameSlab) untake(f frame) {
	clear(f)
	s.off -= len(f)
}

// reset zeroes the blocks the run used, frees them, and returns how
// many handles the slab holds.
func (s *frameSlab) reset() int {
	for _, b := range s.used {
		clear(b)
	}
	s.free, s.used, s.buf, s.off = append(s.free, s.used...), s.used[:0], nil, 0
	return s.words
}

// joiner is the memory hashJoin reuses, with the two lists a chain of
// joins alternates between.
type joiner struct {
	shared     []int
	buf        []byte
	keys       keySet
	head, next []int32
	out        [2][]frame
}

// product appends to dst the consistent merges of every pair from
// as × bs.
func product(t *values, sl *frameSlab, dst, as, bs []frame) []frame {
	for _, a := range as {
		for _, b := range bs {
			f := sl.take(len(a))
			copy(f, a)
			if t.merge(f, b) {
				dst = append(dst, f)
			} else {
				sl.untake(f)
			}
		}
	}
	return dst
}

// hashJoin merges two frame lists on the slots both bind (as the first
// frame of each list binds them: all frames of one match list bind the
// same variables), appending the merges to dst. With no shared slot it
// degrades to the Cartesian product. This is the join used for
// multi-pattern rule bodies (Rule 3's heterogeneous join, experiment
// E5).
func (j *joiner) hashJoin(t *values, sl *frameSlab, dst, as, bs []frame) []frame {
	if len(as) == 0 || len(bs) == 0 {
		return dst
	}
	j.shared = j.shared[:0]
	for s, h := range as[0] {
		if h != 0 && bs[0][s] != 0 {
			j.shared = append(j.shared, s)
		}
	}
	if len(j.shared) == 0 {
		return product(t, sl, dst, as, bs)
	}
	// Per join key, the chain of the positions in bs carrying it, in
	// order: bs is read backwards and each position goes in front.
	j.keys.reset()
	j.head, j.next = j.head[:0], append(j.next[:0], make([]int32, len(bs))...)
	for i := len(bs) - 1; i >= 0; i-- {
		j.buf = appendFrameKey(j.buf[:0], t, bs[i], j.shared)
		k, fresh := j.keys.add(j.buf)
		if fresh {
			j.head = append(j.head, -1)
		}
		j.next[i], j.head[k] = j.head[k], int32(i)
	}
	for _, a := range as {
		j.buf = appendFrameKey(j.buf[:0], t, a, j.shared)
		k, _ := j.keys.find(maphash.Bytes(keySeed, j.buf), j.buf)
		if k < 0 {
			continue
		}
		for i := j.head[k]; i >= 0; i = j.next[i] {
			f := sl.take(len(a))
			copy(f, a)
			if t.merge(f, bs[i]) {
				dst = append(dst, f)
			} else {
				sl.untake(f)
			}
		}
	}
	return dst
}
