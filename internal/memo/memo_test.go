package memo

import (
	"fmt"
	"sync"
	"testing"
)

// item is a test entry that says its own size.
type item struct{ size int64 }

func itemSize(_ int, e *item) int64 { return e.size }

func put(m *Map[int, item], key int, size int64) *item {
	return m.Update(key, func(*item) *item { return &item{size} })
}

// countsErr checks m's counts against what it holds under keys 0..n-1.
func countsErr(m *Map[int, item], n int) error {
	entries, bytes := 0, int64(0)
	for k := range n {
		if e := m.Load(k); e != nil {
			entries++
			bytes += e.size
		}
	}
	if entries != m.Len() || bytes != m.Bytes() {
		return fmt.Errorf("memo counts %d entries and %d bytes, holds %d and %d", m.Len(), m.Bytes(), entries, bytes)
	}
	return nil
}

// TestBoundedMemoConcurrentAdmission: goroutines admitting distinct keys
// never push either count past its bound, admission stops at one of
// them, and the counts end equal to what the memo holds.
func TestBoundedMemoConcurrentAdmission(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		maxEntries, maxBytes int
	}{
		{"entries", 64, 1 << 20},
		{"bytes", 1 << 20, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(tc.maxEntries, int64(tc.maxBytes), itemSize)
			const writers, keys = 8, 400
			var wg sync.WaitGroup
			var past sync.Once
			stop := make(chan struct{})
			go func() { // sample the counts while the writers run
				for {
					select {
					case <-stop:
						return
					default:
					}
					if m.Len() > tc.maxEntries || m.Bytes() > int64(tc.maxBytes) {
						past.Do(func() { t.Errorf("counts %d entries, %d bytes: past a bound", m.Len(), m.Bytes()) })
					}
				}
			}()
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := w; k < writers*keys; k += writers {
						put(m, k, int64(1+k%97))
					}
				}()
			}
			wg.Wait()
			close(stop)
			if m.Len() > tc.maxEntries || m.Bytes() > int64(tc.maxBytes) {
				t.Errorf("counts %d entries, %d bytes: past a bound", m.Len(), m.Bytes())
			}
			if !m.Full() || put(m, -1, 1) != nil {
				t.Errorf("memo at %d entries, %d bytes still admits", m.Len(), m.Bytes())
			}
			if err := countsErr(m, writers*keys); err != nil {
				t.Error(err)
			}
		})
	}
}

// replaceAll admits ten keys, then replaces each entry twice, larger
// and then smaller, and checks the counts.
func replaceAll(m *Map[int, item]) error {
	for _, size := range []int64{10, 20, 5} {
		for k := range 10 {
			if put(m, k, size) == nil {
				return fmt.Errorf("refused key %d at %d bytes", k, size)
			}
		}
	}
	return countsErr(m, 10)
}

// TestBoundedMemoReplacement: a replacement subtracts the old entry's
// size, one that would pass the byte bound leaves the old entry held,
// and writers racing to grow one entry end with its size counted once.
func TestBoundedMemoReplacement(t *testing.T) {
	m := New(16, 200, itemSize)
	if err := replaceAll(m); err != nil {
		t.Fatal(err)
	}
	if m.Bytes() != 50 {
		t.Errorf("bytes = %d after replacements down to 5 each, want 50", m.Bytes())
	}
	if put(m, 0, 160) != nil || m.Load(0).size != 5 || m.Bytes() != 50 {
		t.Errorf("a replacement past the bound: entry size %d, %d bytes; want 5 held and 50", m.Load(0).size, m.Bytes())
	}

	// Fill-a-form style: each writer grows key 99's entry by one.
	g := New(16, 1<<20, itemSize)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				g.Update(99, func(old *item) *item {
					if old == nil {
						return &item{1}
					}
					return &item{old.size + 1}
				})
			}
		}()
	}
	wg.Wait()
	if e := g.Load(99); e.size != 800 || g.Bytes() != 800 || g.Len() != 1 {
		t.Errorf("entry size %d, counts %d bytes and %d entries; want 800, 800, 1", e.size, g.Bytes(), g.Len())
	}
}

// TestBoundedMemoEmpties: the counts are back to zero once every entry
// is gone, and the memo admits again after entries leave.
func TestBoundedMemoEmpties(t *testing.T) {
	m := New(8, 1<<20, itemSize)
	for k := range 8 {
		put(m, k, int64(10*k+1))
	}
	put(m, 3, 500)
	if !m.Full() || put(m, 8, 1) != nil {
		t.Fatalf("%d entries: the memo is not full", m.Len())
	}
	for k := range 9 {
		m.Update(k, func(*item) *item { return nil })
	}
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Errorf("every entry gone, the memo counts %d entries and %d bytes", m.Len(), m.Bytes())
	}
	if put(m, 8, 1) == nil {
		t.Error("an emptied memo refused a new key")
	}
}

// TestBoundedMemoMutant: the checks above catch a memo that never
// subtracts a replaced entry's size. The mutant is a size function that
// counts each entry once and reads 0 when asked again, which is only
// when the entry is replaced.
func TestBoundedMemoMutant(t *testing.T) {
	counted := map[*item]bool{}
	once := func(_ int, e *item) int64 {
		if counted[e] {
			return 0
		}
		counted[e] = true
		return e.size
	}
	if err := replaceAll(New(16, 1000, once)); err == nil {
		t.Error("a memo that never subtracts a replaced entry's size passed")
	}
}

// TestBoundedMemoHitAllocs: a hit is one lock-free load, and allocates
// nothing.
func TestBoundedMemoHitAllocs(t *testing.T) {
	m := New(8, 1<<20, func(string, *item) int64 { return 1 })
	key := string([]byte("Pview1"))
	m.Update(key, func(*item) *item { return &item{} })
	if n := testing.AllocsPerRun(100, func() { m.Load(key) }); n != 0 {
		t.Errorf("a hit allocates %.0f, want 0", n)
	}
	if got, ok := ListKey([]string{"Pview1"}); !ok || got != "Pview1" {
		t.Errorf("ListKey(Pview1) = %q, %v", got, ok)
	}
	if _, ok := ListKey([]string{"Pview1\x00Pview2"}); ok {
		t.Error("a functor holding a NUL has a key")
	}
}
