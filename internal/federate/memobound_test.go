package federate

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"yat/internal/memo"
)

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// bulkReply is a child's reply of n answers of the functor, keyed.
func bulkReply(functor string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"generation":1,"count":%d,"answers":[`, n)
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"%s(%d)","key":"%s(int:%d)\u0000"}`, functor, 1000+i, functor, 1000+i)
	}
	b.WriteString("]}\n")
	return b.String()
}

// TestReplyMemoHoldsItsByteBound is the memo-retention probe for a
// federation parent: 600 whitespace variants of one whole-view ask over
// two canned children, each reply ≈ 50 KB. After GC the live heap has
// grown by no more than memo.MaxBytes and a slack, and what the memo
// holds, measured as the heap it frees, is what it counts up to the
// allocator's rounding (an eighth at most).
func TestReplyMemoHoldsItsByteBound(t *testing.T) {
	if testing.Short() {
		t.Skip("600 asks of two children")
	}
	// The slack is the size classes' eighth and 2 MiB for the parse
	// cache, which keeps the 600 patterns, and the clients' connections.
	const variants, slack = 600, memo.MaxBytes/8 + 2<<20
	var a, b atomic.Value
	a.Store(bulkReply("Pview1", 1000))
	b.Store(bulkReply("Pview2", 1000))
	fed, err := New(Config{Children: []Child{
		{Asker: cannedChild(t, &a, `["Pview1"]`)},
		{Asker: cannedChild(t, &b, `["Pview2"]`)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	ask := func(i int) {
		pat := "view <" + strings.Repeat(" ", i) + " -> name -> N >"
		if _, err := fed.AskReply(context.Background(), pat, nil, false, countingRender(false, &renders)); err != nil {
			t.Fatal(err)
		}
	}
	ask(0) // the connections and buffers every ask reuses
	fed.replies = newReplyMemo()
	before := liveHeap()
	for i := 1; i <= variants; i++ {
		ask(i)
	}
	held := fed.replies
	n, counted := held.Len(), held.Bytes()
	with := liveHeap()
	runtime.KeepAlive(held)
	fed.replies = newReplyMemo()
	freed := with - liveHeap()
	runtime.KeepAlive(fed) // only the memo is freed
	t.Logf("%d entries hold %d bytes and count %d; the heap grew by %d", n, freed, counted, with-before)
	if n == 0 || n == variants || counted > memo.MaxBytes {
		t.Fatalf("the memo took %d of %d variants, counting %d bytes; want it stopped at %d", n, variants, counted, memo.MaxBytes)
	}
	if grown := with - before; grown > memo.MaxBytes+slack {
		t.Errorf("%d variants grew the live heap by %d bytes, past the bound %d and slack %d", variants, grown, memo.MaxBytes, slack)
	}
	if freed > counted+counted/8 {
		t.Errorf("the memo's %d entries held %d bytes and counted %d", n, freed, counted)
	}
}
