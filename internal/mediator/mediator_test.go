package mediator

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"yat/internal/compose"
	"yat/internal/engine"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func newCarMediator(t *testing.T, n int) *Mediator {
	t.Helper()
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := workload.BrochureStore(n, 2, 5, 42)
	return New(prog, inputs, nil)
}

func TestAskCarsByName(t *testing.T) {
	m := newCarMediator(t, 10)
	answers, err := m.Ask(`class -> car < -> name -> N, -> desc -> D,
	                                  -> suppliers -> set -*> S >`, "Pcar")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range answers {
		if a.Name.Functor != "Pcar" {
			t.Errorf("answer from wrong functor: %s", a.Name)
		}
		if _, ok := a.Binding["N"]; !ok {
			t.Errorf("N unbound in %v", a.Binding)
		}
		if _, ok := a.Binding["S"].(tree.Ref); !ok {
			t.Errorf("S should bind a supplier reference, got %v", a.Binding["S"])
		}
	}
}

func TestAskRestrictsFunctors(t *testing.T) {
	m := newCarMediator(t, 10)
	// A bare variable matches everything; the functor filter keeps
	// only supplier objects.
	all, err := m.Ask(`X`)
	if err != nil {
		t.Fatal(err)
	}
	sups, err := m.Ask(`X`, "Psup")
	if err != nil {
		t.Fatal(err)
	}
	if len(sups) == 0 || len(sups) >= len(all) {
		t.Errorf("functor filter wrong: %d of %d", len(sups), len(all))
	}
}

func TestMaterializeOnce(t *testing.T) {
	m := newCarMediator(t, 10)
	if s := m.Stats(); s.Materialized || s.Err != nil || s.Run.Outputs != 0 {
		t.Errorf("mediator materialized eagerly: %+v", s)
	}
	if _, err := m.Ask(`X`); err != nil {
		t.Fatal(err)
	}
	first := m.Stats()
	if !first.Materialized || first.Run.Outputs == 0 {
		t.Fatalf("no outputs after first query: %+v", first)
	}
	if first.Asks != 1 || first.CacheMisses != 1 || first.CacheHits != 0 {
		t.Errorf("first query counters wrong: %+v", first)
	}
	// Further queries reuse the run.
	if _, err := m.Ask(`class -> car -*> Y`); err != nil {
		t.Fatal(err)
	}
	second := m.Stats()
	if second.Run != first.Run {
		t.Error("second query re-ran the conversion")
	}
	if second.CacheHits != 1 || second.CacheMisses != 1 {
		t.Errorf("warm query not counted as a cache hit: %+v", second)
	}
	m.Invalidate()
	s := m.Stats()
	if s.Materialized {
		t.Error("Invalidate did not drop the cache")
	}
	// The last good generation's stats stay readable until the next
	// materialization replaces them.
	if s.Run != first.Run {
		t.Errorf("last good stats lost after Invalidate: %+v", s.Run)
	}
	if _, err := m.Ask(`X`); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); !s.Materialized || s.Run != first.Run || s.CacheMisses != 2 {
		t.Errorf("re-materialization after Invalidate wrong: %+v", s)
	}
}

// TestStatsDistinguishesFailure pins the reporting contract: a
// mediator whose conversion fails must not look like one that never
// ran — Err carries the materialization error.
func TestStatsDistinguishesFailure(t *testing.T) {
	prog := yatl.MustParse(`
program failing
rule R {
  head Pout(X) = out -> V
  from X = in -> D
  let V = raise(D)
}
`)
	store := tree.NewStore()
	store.Put(tree.PlainName("i1"), tree.Sym("in", tree.Str("boom")))
	m := New(prog, store, nil)
	if s := m.Stats(); s.Err != nil || s.Materialized {
		t.Fatalf("failure reported before any query: %+v", s)
	}
	if _, err := m.Ask(`X`); err == nil {
		t.Fatal("conversion should have failed")
	}
	s := m.Stats()
	if s.Materialized {
		t.Error("failed generation reported as materialized")
	}
	if s.Err == nil {
		t.Error("materialization error not surfaced through Stats")
	}
	if s.Asks != 1 || s.CacheMisses != 1 {
		t.Errorf("failed query not counted: %+v", s)
	}
}

// TestAskConcurrentWithInvalidate hammers Ask against Invalidate; with
// -race this is the regression gate for the generation swap. Every
// query must land on a consistent snapshot and succeed.
func TestAskConcurrentWithInvalidate(t *testing.T) {
	m := newCarMediator(t, 6)
	want, err := m.Ask(`X`, "Pcar")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := m.Ask(`X`, "Pcar")
				if err != nil {
					t.Errorf("Ask during Invalidate: %v", err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("Ask saw %d answers, want %d", len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			m.Invalidate()
			m.Stats()
		}
	}()
	wg.Wait()
}

func TestGet(t *testing.T) {
	m := newCarMediator(t, 5)
	n, ok, err := m.Get(tree.SkolemName("Pcar", tree.Ref{Name: tree.PlainName("b1")}))
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if !n.Label.Equal(tree.Symbol("class")) {
		t.Errorf("object = %s", n)
	}
	if _, ok, _ := m.Get(tree.PlainName("ghost")); ok {
		t.Error("Get(ghost) found")
	}
}

func TestFunctors(t *testing.T) {
	m := newCarMediator(t, 5)
	fs, err := m.Functors()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0] != "Pcar" || fs[1] != "Psup" {
		t.Errorf("functors = %v", fs)
	}
}

func TestMediatorOverComposedProgram(t *testing.T) {
	// The §4.3 payoff: a mediator over the composed SGML→HTML program
	// answers HTML queries directly against brochures — the ODMG
	// intermediate never exists.
	first := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	second := yatl.MustParse(yatl.WebProgramSource)
	composed, err := compose.Compose(first, second)
	if err != nil {
		t.Fatal(err)
	}
	m := New(composed, workload.BrochureStore(5, 2, 4, 9), nil)
	answers, err := m.Ask(`html < -> head -> title -> T, -> body -*> B >`, "HtmlPage")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no pages found through the composed mediator")
	}
	sawCar, sawSupplier := false, false
	for _, a := range answers {
		switch a.Binding["T"].Display() {
		case "car":
			sawCar = true
		case "supplier":
			sawSupplier = true
		}
	}
	if !sawCar || !sawSupplier {
		t.Errorf("expected both car and supplier pages (car %v, supplier %v)", sawCar, sawSupplier)
	}
}

// TestConcurrentAskSingleMaterialization hammers one mediator from
// many goroutines: the conversion must run exactly once (counted via
// an external function the rule calls per input) and every client
// must see the same answers. Run with -race this is the correctness
// gate for the mediator's concurrency.
func TestConcurrentAskSingleMaterialization(t *testing.T) {
	const inputs, clients = 8, 16
	var calls atomic.Int64
	reg := engine.NewRegistry()
	reg.Register(engine.Func{
		Name: "count_me", Params: []engine.ParamType{engine.Text}, Result: engine.Text,
		Fn: func(args []tree.Value) (tree.Value, error) {
			calls.Add(1)
			return args[0], nil
		},
	})
	prog := yatl.MustParse(`
program counted
rule R {
  head Pout(X) = out -> V
  from X = in -> D
  let V = count_me(D)
}
`)
	store := tree.NewStore()
	for i := 0; i < inputs; i++ {
		store.Put(tree.PlainName(fmt.Sprintf("i%d", i+1)), tree.Sym("in", tree.Str(fmt.Sprintf("v%d", i+1))))
	}
	m := New(prog, store, engine.WithRegistry(reg))

	var wg sync.WaitGroup
	counts := make([]int, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answers, err := m.Ask(`out -> V`)
			counts[c], errs[c] = len(answers), err
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if counts[c] != inputs {
			t.Errorf("client %d saw %d answers, want %d", c, counts[c], inputs)
		}
	}
	if got := calls.Load(); got != inputs {
		t.Errorf("external function ran %d times, want %d (single materialization)", got, inputs)
	}
}

// TestConcurrentMixedUse exercises Ask, Get, Functors and Stats
// concurrently against one mediator.
func TestConcurrentMixedUse(t *testing.T) {
	m := newCarMediator(t, 10)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Ask(`class -> car -*> X`); err != nil {
				t.Error(err)
			}
			if _, _, err := m.Get(tree.SkolemName("Pcar", tree.Ref{Name: tree.PlainName("b1")})); err != nil {
				t.Error(err)
			}
			if _, err := m.Functors(); err != nil {
				t.Error(err)
			}
			m.Stats()
		}()
	}
	wg.Wait()
}

func TestAskParseError(t *testing.T) {
	m := newCarMediator(t, 2)
	if _, err := m.Ask(`class -> <`); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestAnswersDeterministic(t *testing.T) {
	m := newCarMediator(t, 10)
	a1, _ := m.Ask(`class -> car -*> X`)
	a2, _ := m.Ask(`class -> car -*> X`)
	if len(a1) != len(a2) {
		t.Fatal("answer counts differ")
	}
	for i := range a1 {
		if !a1[i].Name.Equal(a2[i].Name) || a1[i].Binding.Key() != a2[i].Binding.Key() {
			t.Fatalf("answer %d differs between runs", i)
		}
	}
}

// TestAppendMergeKeyMatchesMergeKey: the append form is MergeKey byte
// for byte, and both are the composition doAsk sorts by — Name.Key,
// NUL, engine.Binding.Key (trees by canonical key) — unless the
// answer's remote producer supplied the key. Relaying must not make an
// Answer bigger than the 64 bytes it was with a key string inline:
// retained_heap_mb on every served workload scales with it.
func TestAppendMergeKeyMatchesMergeKey(t *testing.T) {
	subtree := tree.TreeVal{Root: tree.Sym("car", tree.Str("Golf"), tree.IntLeaf(3), tree.FloatLeaf(2))}
	wide := engine.Binding{}
	for i := 0; i < 12; i++ {
		wide[fmt.Sprintf("V%02d", 11-i)] = tree.Int(int64(i))
	}
	answers := []Answer{
		{Name: tree.PlainName("b1")},
		{Name: tree.PlainName("b1"), Binding: engine.Binding{}},
		{Name: tree.SkolemName("Psup", tree.String("VW center"), tree.Symbol("VW"), subtree),
			Binding: engine.Binding{"T": subtree, "N": tree.String("a\x00b;c=\"d\""), "F": tree.Float(2),
				"R": tree.Ref{Name: tree.SkolemName("Pcar", tree.Int(1))}, "B": tree.Bool(true), "": tree.Symbol("s")}},
		{Name: tree.PlainName("wide"), Binding: wide},
		RelayedAnswer(tree.PlainName("remote"), engine.Binding{"N": tree.Int(1)}, &WireForms{Key: "the\x00wire=key;"}),
		// Forwarded members without a key: the key is computed locally.
		RelayedAnswer(tree.PlainName("remote"), nil, &WireForms{Members: `"name":"remote"`}),
	}
	if size := unsafe.Sizeof(Answer{}); size > 64 {
		t.Errorf("Answer is %d bytes, want <= 64", size)
	}
	if a := RelayedAnswer(tree.PlainName("local"), nil, &WireForms{}); a.wire != nil {
		t.Error("an answer with no producer forms allocated some")
	}
	for i, a := range answers {
		want := a.Name.Key() + "\x00" + a.Binding.Key()
		if a.wire != nil && a.wire.Key != "" {
			want = a.wire.Key
		}
		if got := a.MergeKey(); got != want {
			t.Errorf("answer %d: MergeKey = %q, want %q", i, got, want)
		}
		if got := string(a.AppendMergeKey([]byte("k="))); got != "k="+want {
			t.Errorf("answer %d: AppendMergeKey = %q, want %q", i, got, "k="+want)
		}
	}
	// Every answer a real ask produces, too.
	m := newCarMediator(t, 6)
	got, err := m.Ask(`class -> car -*> X`)
	if err != nil || len(got) == 0 {
		t.Fatalf("ask: %d answers, err %v", len(got), err)
	}
	for _, a := range got {
		if k := string(a.AppendMergeKey(nil)); k != a.Name.Key()+"\x00"+a.Binding.Key() {
			t.Errorf("AppendMergeKey(%s) = %q", a.Name, k)
		}
	}
}
