package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/wrapper"
	"yat/internal/yatl"
)

// TestRunScratchIsolation runs the convert_batch pipeline's three
// programs and a demand slice of the Web program from eight goroutines,
// every run through the pooled scratch, and checks that no run sees
// another's memory: each run formats to the bytes of a serial first
// run, and a result held across 100 later runs still does. Then it
// checks that a released scratch holds no tree value, activation,
// bound frame or checker store, and that the check catches three broken
// resets: one that skips zeroing the slab blocks, one that keeps the
// values table and one that keeps the conformance checker's store.
func TestRunScratchIsolation(t *testing.T) {
	docs, db := workload.ConvertBatchSources(42)
	inputs, err := wrapper.ImportSGML(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range wrapper.ImportRelational(db).Entries() {
		inputs.Put(e.Name, e.Tree)
	}
	parse := func(src string) *yatl.Program {
		prog, err := yatl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	rules12, rule3, web := parse(yatl.SGMLToODMGSource), parse("program join\n"+yatl.Rule3Source), parse(yatl.WebProgramSource)
	objects := tree.NewStore()
	for _, prog := range []*yatl.Program{rules12, rule3} {
		res, err := Run(prog, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res.Outputs.Entries() {
			objects.Put(e.Name, e.Tree)
		}
	}
	pages := ComputeSlice(web, "HtmlPage")
	runs := []func() (*Result, error){
		func() (*Result, error) { return Run(rules12, inputs) },
		func() (*Result, error) { return Run(rule3, inputs) },
		func() (*Result, error) { return Run(web, objects) },
		func() (*Result, error) { return RunSlice(context.Background(), web, objects, pages) },
	}
	format := func(res *Result, err error) string {
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("%s%q %v %v", tree.FormatStore(res.Outputs), res.Warnings, res.Unconverted, res.Stats)
	}
	want := make([]string, len(runs))
	for i, run := range runs {
		want[i] = format(run())
	}
	held, err := runs[2]()
	if err != nil {
		t.Fatal(err)
	}
	heldBytes := format(held, nil)

	const goroutines, perGoroutine = 8, 13 // 104 later runs
	var wg sync.WaitGroup
	diffs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perGoroutine; k++ {
				i := (g + k) % len(runs)
				if got := format(runs[i]()); got != want[i] {
					diffs <- fmt.Sprintf("goroutine %d, run %d of program %d: output differs from the serial run", g, k, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(diffs)
	for d := range diffs {
		t.Error(d)
	}
	if format(held, nil) != heldBytes {
		t.Error("a result held across later runs changed: it aliases pooled memory")
	}
	if left := leftovers(scratchPool.Get().(*scratch)); left != nil {
		t.Errorf("a pooled scratch holds %v", left)
	}

	compiled, _ := Compile(web)
	for _, tc := range []struct {
		name   string
		reset  func(*scratch) int
		caught bool
	}{
		{"reset", (*scratch).reset, false},
		{"reset keeping the slab blocks", resetKeepingSlab, true},
		{"reset keeping the values", resetKeepingValues, true},
		{"reset keeping the checker", resetKeepingChecker, true},
	} {
		sc := scratchPool.New().(*scratch)
		if _, err := compiled.executeIn(sc, nil, objects, nil); err != nil {
			t.Fatal(err)
		}
		tc.reset(sc)
		if left := leftovers(sc); (left != nil) != tc.caught {
			t.Errorf("%s: the released scratch holds %v, want it caught: %v", tc.name, left, tc.caught)
		}
	}
}

// TestScratchNodesNeverOutliveARun runs the Figure 1 pipeline — Rules
// 1+2 and Rule 3 into ODMG objects, the Web program into pages — in one
// scratch, reset after every run as execute resets it, keeps the digest
// of the objects and pages, then runs other programs over other inputs
// through the same scratch. The digest must not change: placeholders
// and atom activations' leaves come from the scratch's node slab, which
// every reset zeroes and the next run refills, so an output node cut
// from it would change under the held outputs.
func TestScratchNodesNeverOutliveARun(t *testing.T) {
	sc := scratchPool.New().(*scratch)
	run := func(src string, in *tree.Store) *Result {
		t.Helper()
		c, err := Compile(yatl.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.executeIn(sc, nil, in, nil)
		sc.reset()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	docs, db := workload.ConvertBatchSources(42)
	inputs, err := wrapper.ImportSGML(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range wrapper.ImportRelational(db).Entries() {
		inputs.Put(e.Name, e.Tree)
	}
	objects := tree.NewStore()
	for _, src := range []string{yatl.SGMLToODMGSource, "program join\n" + yatl.Rule3Source} {
		for _, e := range run(src, inputs).Outputs.Entries() {
			objects.Put(e.Name, e.Tree)
		}
	}
	pages := run(yatl.WebProgramSource, objects).Outputs
	digest := func() (d string) {
		defer func() {
			if p := recover(); p != nil {
				d = fmt.Sprint("formatting the outputs panics: ", p)
			}
		}()
		return tree.FormatStore(objects) + tree.FormatStore(pages)
	}
	want := digest()
	if !strings.Contains(want, "&Psup(") || !strings.Contains(want, "HtmlPage(") {
		t.Fatalf("the pipeline made no supplier references or pages:\n%.300s", want)
	}
	for _, later := range []struct {
		src string
		in  *tree.Store
	}{
		{yatl.SGMLToODMGSource, workload.BrochureStore(30, 3, 12, 7)},
		{yatl.WebProgramSource, workload.ODMGStore(25, 13, 3, 11)},
		{"program join\n" + yatl.Rule3Source, inputs},
		{yatl.WebProgramSource, objects},
	} {
		run(later.src, later.in)
		if digest() != want {
			t.Fatalf("the pipeline's outputs changed under a later run of %.40q: a node of theirs is in the scratch", later.src)
		}
	}
	if len(sc.nodes.nodes.blocks) == 0 || len(sc.nodes.derefs.blocks) == 0 {
		t.Fatal("the runs took no node from the scratch")
	}
	for _, b := range sc.nodes.nodes.blocks {
		if slices.ContainsFunc(b, func(n tree.Node) bool { return n.Label != nil }) {
			t.Fatal("a released scratch holds a node")
		}
	}
	for _, b := range sc.nodes.derefs.blocks {
		if slices.ContainsFunc(b, func(d derefVal) bool { return d.Name.Functor != "" }) {
			t.Fatal("a released scratch holds a placeholder's name")
		}
	}
}

// leftovers lists what a released scratch still holds that it should
// not: a tree value, an activation, a bound slab handle, a rule state,
// or the store or answers of the matcher or its conformance checker.
func leftovers(sc *scratch) []string {
	var out []string
	if slices.ContainsFunc(sc.tab.vals[:cap(sc.tab.vals)], func(v tree.Value) bool { return v != nil }) {
		out = append(out, "a value in the table")
	}
	if slices.ContainsFunc(sc.active[:cap(sc.active)], func(a activation) bool { return a.id != nil || a.node != nil }) {
		out = append(out, "an activation")
	}
	if slices.ContainsFunc(sc.cons.args[:cap(sc.cons.args)], func(v tree.Value) bool { return v != nil }) ||
		slices.ContainsFunc(sc.cons.oids[:cap(sc.cons.oids)], func(n tree.Name) bool { return n.Functor != "" }) {
		out = append(out, "a Skolem argument or name")
	}
	for _, b := range append(slices.Clip(sc.slab.used), sc.slab.free...) {
		if slices.ContainsFunc(b, func(h uint32) bool { return h != 0 }) {
			out = append(out, "a bound handle in a slab block")
			break
		}
	}
	if slices.ContainsFunc(sc.states, func(s *ruleState) bool { return s.plan != nil }) {
		out = append(out, "a rule state")
	}
	// The checker's fields are unexported; reflect reads them.
	cc := reflect.ValueOf(sc.conform).Elem()
	if sc.matcher.Store != nil || sc.matcher.Model != nil ||
		!cc.FieldByName("store").IsNil() || !cc.FieldByName("gen").IsNil() || cc.FieldByName("cache").Len() > 0 {
		out = append(out, "the matcher's or the checker's store")
	}
	return out
}

// resetKeepingSlab is a broken reset: the slab blocks keep the handles
// the run left in them.
func resetKeepingSlab(sc *scratch) int {
	var kept [][]uint32
	for _, b := range sc.slab.used {
		kept = append(kept, slices.Clone(b))
	}
	n := sc.reset()
	for i, b := range kept {
		copy(sc.slab.free[len(sc.slab.free)-len(kept)+i], b)
	}
	return n
}

// resetKeepingValues is a broken reset: the values table keeps the
// run's values.
func resetKeepingValues(sc *scratch) int {
	kept := slices.Clone(sc.tab.vals)
	n := sc.reset()
	sc.tab.vals = append(sc.tab.vals[:0], kept...)
	return n
}

// resetKeepingChecker is a broken reset: the conformance checker keeps
// the run's store and answers.
func resetKeepingChecker(sc *scratch) int {
	kept := sc.conform
	sc.conform = pattern.NewConformanceChecker(nil, nil)
	n := sc.reset()
	sc.conform = kept
	return n
}

// TestKeySet checks the key set against a map: dense numbers in
// first-insertion order, keys that are prefixes of one another kept
// apart, a reset that forgets every key (each round numbers the keys
// afresh) and drops a table far larger than them, and keys whose hashes
// collide.
func TestKeySet(t *testing.T) {
	var s keySet
	if i, _ := s.find(1, nil); i != -1 {
		t.Errorf("find in an empty set = %d", i)
	}
	for round, n := range []int{500, 500, 3, 40} {
		ref := map[string]int{}
		for i := 0; i < n; i++ {
			k := strings.Repeat("k", i%7) + fmt.Sprint(i%97)
			id, fresh := s.add([]byte(k))
			want, seen := ref[k]
			if !seen {
				want = len(ref)
				ref[k] = want
			}
			if id != want || fresh == seen {
				t.Fatalf("round %d: add(%q) = %d, %v; want %d, %v", round, k, id, fresh, want, !seen)
			}
		}
		big := len(s.slots)
		s.reset()
		// A table eight times the keys it held is dropped, so the next
		// reset does not pay for the largest set.
		if dropped := len(s.slots) == 0; dropped != (8*n < big) {
			t.Errorf("round %d: %d keys in %d slots, table dropped: %v", round, n, big, dropped)
		}
	}
	// Keys whose hashes collide are told apart by their bytes.
	for i, k := range []string{"a", "b", "a", "ab", "b"} {
		want := map[string]int{"a": 0, "b": 1, "ab": 2}[k]
		if id, fresh := s.addHashed(7, []byte(k)); id != want || fresh != (i < 2 || k == "ab") {
			t.Errorf("addHashed(7, %q) = %d, %v; want %d", k, id, fresh, want)
		}
	}
	if i, _ := s.find(7, []byte("c")); i != -1 {
		t.Errorf("find of an absent key under a shared hash = %d", i)
	}
}

// TestScratchSizeCountsWhatItKeeps checks reset's size against the
// heap: a scratch keeps no more than its reset reported. A scratch
// that ran Rules 1 and 2 over 4 000 brochures is past the pool's cap,
// and still is after a small run in it, so execute drops it; one that
// only ran the small store is pooled.
func TestScratchSizeCountsWhatItKeeps(t *testing.T) {
	prog, err := yatl.Parse(yatl.SGMLToODMGSource)
	if err != nil {
		t.Fatal(err)
	}
	small := workload.BrochureStore(8, 3, 4, 7)
	compiled, _ := Compile(prog)
	for _, tc := range []struct {
		stores []*tree.Store
		pooled bool
	}{
		{[]*tree.Store{small}, true},
		{[]*tree.Store{workload.BrochureStore(4000, 3, 1000, 7), small}, false},
	} {
		sc := scratchPool.New().(*scratch)
		size := 0
		for _, st := range tc.stores {
			if _, err := compiled.executeIn(sc, nil, st, nil); err != nil {
				t.Fatal(err)
			}
			size = sc.reset()
		}
		// Two collections first empty the pool and its victim cache, so
		// the difference below is the scratch alone.
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(sc)
		runtime.GC()
		runtime.ReadMemStats(&without)
		held := int(with.HeapAlloc) - int(without.HeapAlloc)
		if held > size+size/32+16<<10 {
			t.Errorf("%d stores: the scratch keeps %d bytes, its reset reported %d", len(tc.stores), held, size)
		}
		if pooled := size <= maxPooledScratch; pooled != tc.pooled {
			t.Errorf("%d stores: reset reported %d bytes, pooled = %v, want %v", len(tc.stores), size, pooled, tc.pooled)
		}
	}
}
