package federate

import (
	"crypto/sha256"
	"strings"
	"sync"
	"sync/atomic"

	"yat/internal/mediator"
)

// replyMemo is a federation's AskReply memo: per ask, what each child
// replied, as a digest, and the reply rendered from those replies. The
// reply is a function of the children's reply bytes, so an entry needs
// no invalidation — a child whose view moved replies other bytes, and
// the ask misses. Safe for concurrent use; asks read it without a lock.
type replyMemo struct {
	entries sync.Map // replyKey -> *replyEntry
	n       atomic.Int64
}

// replyKey identifies an ask: the pattern text, the functors as asked,
// NUL-joined, and whether the reply carries merge keys.
type replyKey struct {
	pattern, functors string
	keyed             bool
}

// replyEntry is one memoized reply. Immutable once stored, but for
// replayed.
type replyEntry struct {
	shards []shardSeen       // per target, in target order
	body   []byte            // the rendered reply, an exact-size copy
	sum    [sha256.Size]byte // body's digest, for asks conditional on it
	// replayed says the last ask that found the entry was answered from
	// it. Only then are the children asked conditionally: while one is
	// down or moving, the others' 304s would have them asked twice.
	replayed atomic.Bool
}

// shardSeen is one child's reply as the memo saw it: the SHA-256 digest
// of its bytes, and the generation and answer count they carried.
type shardSeen struct {
	sum   [sha256.Size]byte
	gen   int64
	count int
}

// shard is target i's reply as the entry saw it, nil when it has none.
func (e *replyEntry) shard(i int) *shardSeen {
	if i >= len(e.shards) {
		return nil
	}
	return &e.shards[i]
}

// replyKeyOf keys an ask for the memo. ok is false for an ask the memo
// must not hold: one with no target, or one with an in-process child,
// whose answers come with no bytes to digest, or one whose functor list
// has no key (a functor holding a NUL would make two lists one key).
func replyKeyOf(patternSrc string, functors []string, keyed bool, targets []target) (key replyKey, ok bool) {
	if len(targets) == 0 {
		return key, false
	}
	for _, t := range targets {
		if t.c.client == nil {
			return key, false
		}
	}
	for _, f := range functors {
		if strings.IndexByte(f, 0) >= 0 {
			return key, false
		}
	}
	return replyKey{pattern: patternSrc, functors: strings.Join(functors, "\x00"), keyed: keyed}, true
}

// lookup returns an ask's entry, nil when there is none.
func (m *replyMemo) lookup(key replyKey) *replyEntry {
	v, ok := m.entries.Load(key)
	if !ok {
		return nil
	}
	return v.(*replyEntry)
}

// full reports whether the memo admits no new ask.
func (m *replyMemo) full() bool { return m.n.Load() >= mediator.MaxAskMemo }

// store records an ask's entry, replacing the one it had. A new ask
// takes an entry unless the memo is full: like the mediator's ask memo,
// it stops admitting at mediator.MaxAskMemo.
func (m *replyMemo) store(key replyKey, e *replyEntry) {
	if _, ok := m.entries.Load(key); !ok {
		if m.n.Add(1) > mediator.MaxAskMemo {
			m.n.Add(-1)
			return
		}
		if _, loaded := m.entries.LoadOrStore(key, e); !loaded {
			return
		}
		m.n.Add(-1)
	}
	m.entries.Store(key, e)
}
