package federate

import (
	"crypto/sha256"
	"sync/atomic"

	"yat/internal/memo"
	"yat/internal/serve/wire"
)

// replyMemo is a federation's AskReply memo: per ask, what each child
// replied, as a digest, and the reply rendered from those replies. The
// reply is a function of the children's reply bytes, so an entry needs
// no invalidation — a child whose view moved replies other bytes, and
// the ask misses. It is never emptied, but an entry whose successor the
// memo refuses is dropped.
type replyMemo = memo.Map[replyKey, replyEntry]

// maxReplyMemo bounds a federation's reply memo in entries, as
// memo.MaxBytes does in bytes.
const maxReplyMemo = 512

func newReplyMemo() *replyMemo { return memo.New(maxReplyMemo, memo.MaxBytes, replyEntrySize) }

// An entry holds its key, the body, a target and a shardSeen per
// target, and replyEntryCost for itself and its map slot
// (TestReplyMemoHoldsItsByteBound).
const replyEntryCost = 256

func replyEntrySize(key replyKey, e *replyEntry) int64 {
	return int64(replyEntryCost + len(key.pattern) + len(key.functors) + len(e.body) + (32+64)*len(e.shards))
}

// replyKey identifies an ask: the pattern text, the functors as asked,
// NUL-joined, and whether the reply carries merge keys.
type replyKey struct {
	pattern, functors string
	keyed             bool
}

// replyEntry is one memoized reply. Immutable once stored, but for
// replayed; a reply under a newer epoch stores a successor.
type replyEntry struct {
	targets []target    // the ask's plan, shared by its successors
	shards  []shardSeen // per target, in target order
	body    []byte      // the rendered reply, an exact-size copy
	// replayed says the last ask that found the entry was answered from
	// it. Only then are the children asked conditionally: while one is
	// down or moving, the others' 304s would have them asked twice.
	replayed atomic.Bool
}

// replay notes that an ask was answered from e.
func (e *replyEntry) replay() {
	if !e.replayed.Load() {
		e.replayed.Store(true)
	}
}

// shardSeen is one child's reply as the memo saw it: the SHA-256 digest
// of its bytes, the generation and answer count they carried, and the
// write epoch the child last tagged them with (zero for a child that
// holds none).
type shardSeen struct {
	sum   [sha256.Size]byte
	gen   int64
	count int
	epoch wire.Epoch
}

// shard is target i's reply as the entry saw it, nil when it has none.
func (e *replyEntry) shard(i int) *shardSeen {
	if i >= len(e.shards) {
		return nil
	}
	return &e.shards[i]
}

// replyKeyOf keys an ask for the memo. ok is false for an ask whose
// functor list has no key (memo.ListKey).
func replyKeyOf(patternSrc string, functors []string, keyed bool) (key replyKey, ok bool) {
	fs, ok := memo.ListKey(functors)
	return replyKey{pattern: patternSrc, functors: fs, keyed: keyed}, ok
}

// memoizable says whether the memo may hold an ask routed to targets:
// not one with no target, nor one with an in-process child, whose
// answers come with no bytes to digest.
func memoizable(targets []target) bool {
	for _, t := range targets {
		if t.c.client == nil {
			return false
		}
	}
	return len(targets) > 0
}
