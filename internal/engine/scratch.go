package engine

import (
	"bytes"
	"hash/maphash"
	"sync"
	"unsafe"

	"yat/internal/pattern"
	"yat/internal/tree"
)

// scratch is a run's working memory. execute takes one from scratchPool
// and hands it back emptied, so a run refills an earlier run's memory.
// Nothing a run returns points into it.
type scratch struct {
	// tab is the values table of every frame of the run.
	tab     values
	active  []activation
	seenIDs keySet
	// keyBuf holds the key being built; dedup, an activation's keys.
	keyBuf []byte
	dedup  keySet
	// slab holds the frames the run keeps, matched and joined; nodes,
	// the nodes it throws away.
	slab  frameSlab
	nodes nodeSlab
	// operands holds the arguments of the external call being made.
	operands []tree.Value
	// states holds a run's rule states by rule position.
	states []*ruleState
	// twins holds one shared match per group of twin rules.
	twins   []twinMatch
	cons    constructor
	join    joiner
	matcher Matcher
	conform *pattern.ConformanceChecker
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{tab: values{vals: []tree.Value{nil}}, conform: pattern.NewConformanceChecker(nil, nil)}
}}

// maxPooledScratch bounds the size of a pooled scratch: a larger one is
// dropped, so one huge run cannot pin its memory for good.
const maxPooledScratch = 4 << 20

// reset empties the scratch, keeping its memory, and returns its size in
// bytes: its arrays' capacities, and its checker's entries at a bound of
// their bytes each (a map keeps the size of its fullest run, which that
// run's reset counted). It clears every tree pointer, so an idle scratch
// pins no tree, and zeroes the slabs: take promises unbound frames.
func (sc *scratch) reset() int {
	c, j := &sc.cons, &sc.join
	n := sizeOf(sc.tab.vals) + sizeOf(sc.active) + sizeOf(sc.keyBuf) + 4*sc.slab.reset() + sc.nodes.reset() + sizeOf(sc.operands) +
		sc.seenIDs.reset() + sc.dedup.reset() + c.oidKeys.reset() + c.keys.reset() + j.keys.reset() + sizeOf(c.parts) + sizeOf(c.args) +
		sizeOf(c.ids) + sizeOf(c.sizes) + sizeOf(c.oids) + sizeOf(c.groups) + sizeOf(c.frames) + sizeOf(c.buf) +
		sizeOf(j.shared) + sizeOf(j.buf) + sizeOf(j.head) + sizeOf(j.next) + sizeOf(j.out[0]) + sizeOf(j.out[1]) +
		96*sc.conform.Reset(nil, nil) + sizeOf(sc.states) + sizeOf(sc.twins)
	sc.tab.reset()
	clear(sc.twins)
	sc.twins = sc.twins[:0]
	clear(sc.active)
	sc.active = sc.active[:0]
	for _, s := range sc.states {
		pp := s.perPattern[:cap(s.perPattern)]
		n += int(unsafe.Sizeof(*s)) + s.rawSeen.reset() + sizeOf(s.raw) + sizeOf(s.evaluated) + sizeOf(pp)
		for i, fs := range pp {
			n, pp[i] = n+sizeOf(fs), fs[:0]
		}
		*s = ruleState{perPattern: pp[:0], raw: s.raw[:0], rawSeen: s.rawSeen, evaluated: s.evaluated[:0]}
	}
	clear(sc.operands[:cap(sc.operands)])
	clear(c.args[:cap(c.args)])
	clear(c.oids)
	c.plan, c.blocks, c.nodes, c.oid = nil, nil, nil, tree.Name{}
	sc.matcher = Matcher{}
	return n
}

// sizeOf returns the bytes of s's backing array.
func sizeOf[T any](s []T) int { return cap(s) * int(unsafe.Sizeof(*new(T))) }

var keySeed = maphash.MakeSeed()

// keySet numbers keys densely in first-insertion order. It keeps them
// end to end in buf and their numbers in an open-addressed table, so it
// allocates no key. A reset clears the table, or drops it when it is
// far larger than the set, so a reset costs what the set held.
type keySet struct {
	slots []int32   // 2^k slots, each a key's number plus 1, or 0
	keys  []keySpan // per key, its hash and where it lies in buf
	buf   []byte
}

type keySpan struct {
	h      uint64
	lo, hi int
}

// add returns k's number and whether k is new to the set.
func (s *keySet) add(k []byte) (int, bool) { return s.addHashed(maphash.Bytes(keySeed, k), k) }

func (s *keySet) addHashed(h uint64, k []byte) (int, bool) {
	if 2*len(s.keys) >= len(s.slots) { // double the table and put every key back
		s.slots = make([]int32, max(16, 2*len(s.slots)))
		for i, e := range s.keys {
			_, p := s.find(e.h, s.buf[e.lo:e.hi])
			s.slots[p] = int32(i) + 1
		}
	}
	i, p := s.find(h, k)
	if i >= 0 {
		return i, false
	}
	s.slots[p] = int32(len(s.keys)) + 1
	s.keys = append(s.keys, keySpan{h, len(s.buf), len(s.buf) + len(k)})
	s.buf = append(s.buf, k...)
	return len(s.keys) - 1, true
}

// find returns the number of k, hashed h, or -1, and the slot where k
// is or would go.
func (s *keySet) find(h uint64, k []byte) (int, uint64) {
	mask := uint64(len(s.slots) - 1)
	p := h & mask
	for ; len(s.slots) > 0 && s.slots[p] != 0; p = (p + 1) & mask {
		if i := int(s.slots[p]) - 1; s.keys[i].h == h && bytes.Equal(s.buf[s.keys[i].lo:s.keys[i].hi], k) {
			return i, p
		}
	}
	return -1, p
}

// key returns the key numbered i.
func (s *keySet) key(i int) []byte { return s.buf[s.keys[i].lo:s.keys[i].hi] }

// reset empties the set and returns its size in bytes.
func (s *keySet) reset() int {
	n := sizeOf(s.slots) + sizeOf(s.keys) + sizeOf(s.buf)
	if len(s.slots) > 16 && 8*len(s.keys) < len(s.slots) {
		s.slots = nil
	} else {
		clear(s.slots)
	}
	s.keys, s.buf = s.keys[:0], s.buf[:0]
	return n
}

// nodeSlab hands out the nodes a run throws away — the ^P placeholders
// the dereferencing pass replaces, with their labels, and atom
// activations' leaves — from blocks the scratch keeps, so that once the
// pool is warm they cost no allocation. A reset zeroes all it handed
// out: no tree a run returns may point into the slab, which is why
// output nodes come from the run's tree.Blocks instead, and why a
// throwaway node does not come from those, where it would pin an output
// block.
type nodeSlab struct {
	nodes  slab[tree.Node]
	derefs slab[derefVal]
}

// leaf returns a childless node labeled label.
func (s *nodeSlab) leaf(label tree.Value) *tree.Node {
	n := s.nodes.take()
	n.Label = label
	return n
}

// placeholder returns the placeholder node of ^name.
func (s *nodeSlab) placeholder(name tree.Name) *tree.Node {
	d := s.derefs.take()
	d.Name = name
	return s.leaf(d)
}

// reset zeroes what the slab handed out and returns its size in bytes.
func (s *nodeSlab) reset() int { return s.nodes.reset() + s.derefs.reset() }

// slab hands out Ts from blocks kept across resets: 16 Ts, then twice
// the block before, up to 512, so that a small run zeroes a small block.
type slab[T any] struct {
	blocks [][]T
	b, i   int // the block and the element take hands out next
}

func (s *slab[T]) take() *T {
	if s.b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, 16<<min(s.b, 5)))
	}
	t := &s.blocks[s.b][s.i]
	if s.i++; s.i == len(s.blocks[s.b]) {
		s.b, s.i = s.b+1, 0
	}
	return t
}

// reset zeroes the Ts handed out and returns the slab's size in bytes.
func (s *slab[T]) reset() int {
	n := sizeOf(s.blocks)
	for k, blk := range s.blocks {
		n += sizeOf(blk)
		if k < s.b {
			clear(blk)
		} else if k == s.b {
			clear(blk[:s.i])
		}
	}
	s.b, s.i = 0, 0
	return n
}
