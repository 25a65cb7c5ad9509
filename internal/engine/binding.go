package engine

import (
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
// out of shared blocks.
type frameSlab struct {
	buf []uint32
	off int
}

// take returns an all-unbound frame of width w.
func (s *frameSlab) take(w int) frame {
	if len(s.buf)-s.off < w {
		s.buf, s.off = make([]uint32, max(64*w, 256)), 0
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

// product merges every pair from as × bs, keeping consistent merges.
func product(t *values, as, bs []frame, sl *frameSlab) []frame {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	out := make([]frame, 0, len(as))
	for _, a := range as {
		for _, b := range bs {
			f := sl.take(len(a))
			copy(f, a)
			if t.merge(f, b) {
				out = append(out, f)
			} else {
				sl.untake(f)
			}
		}
	}
	return out
}

// hashJoin merges two frame lists on the slots both bind (as the first
// frame of each list binds them: all frames of one match list bind the
// same variables). With no shared slot it degrades to the Cartesian
// product. This is the join used for multi-pattern rule bodies (Rule
// 3's heterogeneous join, experiment E5).
func hashJoin(t *values, as, bs []frame, sl *frameSlab) []frame {
	if len(as) == 0 || len(bs) == 0 {
		return nil
	}
	var shared []int
	for s, h := range as[0] {
		if h != 0 && bs[0][s] != 0 {
			shared = append(shared, s)
		}
	}
	if len(shared) == 0 {
		return product(t, as, bs, sl)
	}
	// Per join key, the positions in bs of the frames carrying it.
	index := make(map[string]int, len(bs))
	var carriers [][]int
	var buf []byte
	for j, b := range bs {
		buf = appendFrameKey(buf[:0], t, b, shared)
		k, ok := index[string(buf)]
		if !ok {
			k = len(carriers)
			index[string(buf)] = k
			carriers = append(carriers, nil)
		}
		carriers[k] = append(carriers[k], j)
	}
	var out []frame
	for _, a := range as {
		buf = appendFrameKey(buf[:0], t, a, shared)
		k, ok := index[string(buf)]
		if !ok {
			continue
		}
		for _, j := range carriers[k] {
			f := sl.take(len(a))
			copy(f, a)
			if t.merge(f, bs[j]) {
				out = append(out, f)
			} else {
				sl.untake(f)
			}
		}
	}
	return out
}
