package mediator

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"yat/internal/memo"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// spaced is the ask pattern with i spaces after its first '<': one ask,
// written 600 ways, is 600 memo keys.
func spaced(pat string, i int) string {
	return strings.Replace(pat, "<", "<"+strings.Repeat(" ", i), 1)
}

// TestAskMemoHoldsItsByteBound is the memo-retention probe: 600
// whitespace variants of one whole-view ask over serve_lookup's store,
// asked for a 30 KB reply and then for the 460 answers. After each run
// the live heap has grown by no more than memo.MaxBytes and a slack, and
// what the memo holds, measured as the heap it frees, is what it counts
// up to the allocator's rounding: an allocation is rounded up to its
// size class, by at most an eighth. For the answers, no answer holds
// more than answerCost.
func TestAskMemoHoldsItsByteBound(t *testing.T) {
	if testing.Short() {
		t.Skip("600 whole-view asks")
	}
	// The slack is the size classes' eighth and 2 MiB for the parse
	// cache, which keeps the 600 patterns (≈ 1 MB).
	const pat, variants, slack = `view < -> name -> N, -> city -> C, -> zip -> Z >`, 600, memo.MaxBytes/8 + 2<<20
	prog := yatl.MustParse(workload.SelectiveProgram(8))
	for _, replies := range []bool{true, false} {
		m := New(prog, workload.BrochureStore(400, 3, 500, 42), WithDemandDriven(true))
		if _, err := m.Ask(pat, "Pview1"); err != nil {
			t.Fatal(err)
		}
		g := m.state().dgen
		g.mu.Lock()
		g.cache.publish(func(map[string]*group) {}) // the same groups, an empty memo
		g.mu.Unlock()
		renders := 0
		before := liveHeap()
		for i := 1; i <= variants; i++ {
			var err error
			if replies {
				_, err = m.AskReply(nil, spaced(pat, i), []string{"Pview1"}, true, textReply(true, &renders))
			} else {
				_, err = m.Ask(spaced(pat, i), "Pview1")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		held := g.cache.view().memo
		n, counted, answers := held.Len(), held.Bytes(), 0
		if !replies {
			answers = n * len(held.Load(askKey{pattern: spaced(pat, 1), functors: "Pview1"}).answers)
		}
		with := liveHeap()
		runtime.KeepAlive(held)
		g.mu.Lock()
		g.cache.publish(func(map[string]*group) {})
		g.mu.Unlock()
		freed := with - liveHeap()
		runtime.KeepAlive(m) // only the memo is freed
		t.Logf("replies %v: %d entries hold %d bytes and count %d; the heap grew by %d", replies, n, freed, counted, with-before)
		if n == 0 || n == variants || counted > memo.MaxBytes {
			t.Fatalf("replies %v: the memo took %d of %d variants, counting %d bytes; want it stopped at %d", replies, n, variants, counted, memo.MaxBytes)
		}
		if grown := with - before; grown > memo.MaxBytes+slack {
			t.Errorf("replies %v: %d variants grew the live heap by %d bytes, past the bound %d and slack %d", replies, variants, grown, memo.MaxBytes, slack)
		}
		if freed > counted+counted/8 {
			t.Errorf("replies %v: the memo's %d entries held %d bytes and counted %d", replies, n, freed, counted)
		}
		if answers > 0 {
			perAnswer := (freed - int64(n)*memoEntryCost) / int64(answers)
			t.Logf("%d answers hold %d bytes each", answers, perAnswer)
			if perAnswer > answerCost {
				t.Errorf("an answer holds %d bytes, answerCost counts %d", perAnswer, answerCost)
			}
		}
	}
}

// TestParseCacheHoldsItsBounds fills the process-wide parse cache past
// its byte bound with 96 distinct patterns of nearly maxPatCacheText
// bytes, as many /ask bodies could: the live heap grows by the text the
// cache admits, not by all 1.5 MiB. A longer pattern, even one of half
// a MiB, is parsed without being offered to the cache, so it does not
// stop the cache. The test leaves the full cache to the package's later
// tests (TestAskMemoForms, TestSnapshotRestoreWarmStart, …), which hit
// their ask memos as before, since a memo is keyed by pattern text; and
// it checks so itself: a pattern the full cache refuses is a memo hit
// on its second ask.
func TestParseCacheHoldsItsBounds(t *testing.T) {
	pattern := func(i, size int) string {
		return fmt.Sprintf(`view < -> name -> "%d%s" >`, i, strings.Repeat("x", size))
	}
	patCache = newPatCache()
	if _, err := ParsePattern(pattern(-1, 512<<10)); err != nil {
		t.Fatal(err)
	}
	small := pattern(-2, 8)
	if _, err := ParsePattern(small); err != nil {
		t.Fatal(err)
	}
	if patCache.Load(small) == nil || patCache.Len() != 1 {
		t.Fatalf("after a 512 KiB pattern and a small one the parse cache holds %d patterns, the small one %v; want just it",
			patCache.Len(), patCache.Load(small) != nil)
	}

	const n, size = 96, maxPatCacheText - 64
	patCache = newPatCache()
	before := liveHeap()
	for i := 0; i < n; i++ {
		if _, err := ParsePattern(pattern(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - before
	held := patCache.Len()
	t.Logf("%d of %d patterns cached, %d bytes of text; the heap grew by %d", held, n, patCache.Bytes(), grown)
	if held == 0 || held == n || patCache.Bytes() > maxPatCacheBytes {
		t.Fatalf("the parse cache took %d of %d patterns, %d bytes; want it stopped at %d", held, n, patCache.Bytes(), maxPatCacheBytes)
	}
	// The text, which the trees' string constants share, and slack.
	if limit := int64(maxPatCacheBytes + 512<<10); grown > limit {
		t.Errorf("%d patterns of %d bytes grew the live heap by %d, past %d", n, size, grown, limit)
	}

	prog := yatl.MustParse(workload.SelectiveProgram(2))
	m := New(prog, workload.BrochureStore(4, 2, 4, 1), WithDemandDriven(true))
	pat := `view < -> name -> N, -> city -> C >`
	for i := 0; i < 2; i++ {
		if _, err := m.Ask(pat, "Pview1"); err != nil {
			t.Fatal(err)
		}
	}
	if patCache.Load(pat) != nil {
		t.Fatal("vacuous: the full parse cache admitted a new pattern")
	}
	if st := m.Stats(); st.MemoHits != 1 {
		t.Errorf("a pattern past the parse cache's bound, asked twice: %d memo hits, want 1", st.MemoHits)
	}
}
