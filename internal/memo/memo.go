// Package memo is the one bounded memo: the mediator's ask memo per
// cache view, the federation's reply memo and a compiled program's slice memo
// are each a Map of their own entries. A Map admits new keys until it
// holds its bound in entries, or a new key does not fit its bound in
// bytes as its owner sizes entries, and then stops. Nothing is evicted;
// an owner that wants an empty memo starts a new Map.
package memo

import (
	"strings"
	"sync"
	"sync/atomic"
)

// MaxBytes bounds the bytes of each ask memo, a mediator view's or a
// federation's. 512 whole-view replies of 85 KB would hold 43.5 MB; no
// benchmark workload's memo holds more than 201 KB at the end of a run.
const MaxBytes = 8 << 20

// Map is a memo from K to immutable *E entries, safe for concurrent
// use. Reads are lock-free; writes compare and swap under mu.
type Map[K comparable, E any] struct {
	maxEntries, maxBytes int64
	// size is what an entry holds, key included. It must not change
	// while the entry is held, so that a replacement subtracts what the
	// entry added.
	size     func(K, *E) int64
	entries  sync.Map // K -> *E
	mu       sync.Mutex
	n, bytes atomic.Int64
	// full is set by the first new key a bound refused: from then on
	// new keys are refused before their entries are built.
	full atomic.Bool
}

// New returns an empty memo that admits at most maxEntries entries and
// maxBytes bytes, an entry counting size(key, entry).
func New[K comparable, E any](maxEntries int, maxBytes int64, size func(K, *E) int64) *Map[K, E] {
	return &Map[K, E]{maxEntries: int64(maxEntries), maxBytes: maxBytes, size: size}
}

// Load returns key's entry, nil when there is none.
func (m *Map[K, E]) Load(key K) *E {
	v, _ := m.entries.Load(key)
	e, _ := v.(*E)
	return e
}

// Full reports whether the memo admits no new key.
func (m *Map[K, E]) Full() bool { return m.n.Load() >= m.maxEntries || m.full.Load() }

// Len is the number of entries held.
func (m *Map[K, E]) Len() int { return int(m.n.Load()) }

// Bytes is the size of the entries held.
func (m *Map[K, E]) Bytes() int64 { return m.bytes.Load() }

// Update stores next(old) in place of old, key's entry (nil when it has
// none): nil removes the entry, and a writer that loses a race calls
// next again with the winner's entry. It returns key's entry afterwards,
// nil when the memo refused next's: a new key on a full memo (next is
// then not called), or an entry that would take either count past its
// bound, in which case old stays. next returning old stores nothing.
func (m *Map[K, E]) Update(key K, next func(old *E) *E) *E {
	for {
		old := m.Load(key)
		if old == nil && m.Full() {
			return nil
		}
		e := next(old)
		if e == old {
			return old
		}
		if stored, ok := m.swap(key, old, e); ok {
			return stored
		}
	}
}

// swap stores e under key if key's entry is still old (ok), unless that
// would take a count past its bound (stored nil).
func (m *Map[K, E]) swap(key K, old, e *E) (stored *E, ok bool) {
	var dn, db int64 // what the swap adds to the counts
	if old != nil {
		dn, db = -1, -m.size(key, old)
	}
	if e != nil {
		dn, db = dn+1, db+m.size(key, e)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Load(key) != old {
		return nil, false
	}
	n, bytes := m.n.Load()+dn, m.bytes.Load()+db
	switch {
	case n > m.maxEntries || bytes > m.maxBytes:
		if old == nil {
			m.full.Store(true)
		}
		return nil, true
	case e == nil:
		m.entries.Delete(key)
	default:
		m.entries.Store(key, e)
	}
	m.n.Store(n)
	m.bytes.Store(bytes)
	return e, true
}

// ListKey joins a functor list into one memo key, NUL-separated. A name
// holding a NUL names no YATL functor, and would make two lists one key
// ("A\x00B" and "A", "B"), so such a list has no key: ok is false and
// the caller bypasses its memo. One functor is its own key, with no
// allocation.
func ListKey(functors []string) (key string, ok bool) {
	for _, f := range functors {
		if strings.IndexByte(f, 0) >= 0 {
			return "", false
		}
	}
	return strings.Join(functors, "\x00"), true
}
