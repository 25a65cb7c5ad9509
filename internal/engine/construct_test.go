package engine

import (
	"fmt"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

// runRule applies a single-rule program to a store.
func runRule(t *testing.T, ruleText string, inputs *tree.Store) *Result {
	t.Helper()
	prog, err := yatl.Parse("program p\n" + ruleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func storeOf(t *testing.T, src string) *tree.Store {
	t.Helper()
	s, err := tree.ParseStore(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstructNestedGrouping(t *testing.T) {
	// Group items by category, then by color inside each category.
	src := `
rule Nest {
  head Out(X) = cats -{}> cat < -> C, -{}> item -> N >
  from X = items -*> item < -> cat -> C, -> color -> N >
}
`
	inputs := storeOf(t, `
	  i: items < item < cat < a >, color < red > >,
	             item < cat < a >, color < blue > >,
	             item < cat < b >, color < red > >,
	             item < cat < a >, color < red > > >
	`)
	res := runRule(t, src, inputs)
	out, ok := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("i")}))
	if !ok {
		t.Fatalf("output missing:\n%s", tree.FormatStore(res.Outputs))
	}
	want := tree.MustParse(`cats < cat < a, item < red >, item < blue > >,
	                               cat < b, item < red > > >`)
	if !out.Equal(want) {
		t.Errorf("nested grouping:\n got: %s\nwant: %s", out, want)
	}
}

func TestConstructOrderedByTwoCriteria(t *testing.T) {
	src := `
rule Sort {
  head Out(X) = sorted -[A,B]> pair < -> A, -> B >
  from X = in -*> p < -> a -> A, -> b -> B >
}
`
	inputs := storeOf(t, `
	  i: in < p < a < 2 >, b < "y" > >,
	          p < a < 1 >, b < "z" > >,
	          p < a < 2 >, b < "x" > >,
	          p < a < 1 >, b < "z" > > >
	`)
	res := runRule(t, src, inputs)
	out, _ := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("i")}))
	want := tree.MustParse(`sorted < pair < 1, "z" >, pair < 2, "x" >, pair < 2, "y" > >`)
	if !out.Equal(want) {
		t.Errorf("two-criteria ordering:\n got: %s\nwant: %s", out, want)
	}
}

func TestConstructIndexRoundTripsOrder(t *testing.T) {
	// An index edge in the head reassembles children in index order
	// even when bindings arrive shuffled by an intermediate grouping.
	src := `
rule Keep {
  head Out(X) = v -#I> E
  from X = v -#I> E
}
`
	inputs := storeOf(t, `i: v < "c", "a", "b" >`)
	res := runRule(t, src, inputs)
	out, _ := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("i")}))
	want := tree.MustParse(`v < "c", "a", "b" >`)
	if !out.Equal(want) {
		t.Errorf("index order:\n got: %s\nwant: %s", out, want)
	}
}

func TestConstructHeadConstantsOnly(t *testing.T) {
	// A head with no variables emits one constant object per Skolem
	// key.
	src := `
rule Konst {
  head Out(X) = marker -> "fixed"
  from X = anything -> V
}
`
	inputs := storeOf(t, `a: anything < 1 >
	                      b: anything < 2 >`)
	res := runRule(t, src, inputs)
	if res.Outputs.Len() != 2 {
		t.Fatalf("outputs = %d", res.Outputs.Len())
	}
	for _, e := range res.Outputs.Entries() {
		if !e.Tree.Equal(tree.MustParse(`marker < "fixed" >`)) {
			t.Errorf("constant head wrong: %s", e.Tree)
		}
	}
}

func TestConstructVarSplicesSubtree(t *testing.T) {
	// A leaf head variable bound to a subtree splices the whole
	// subtree into the output.
	src := `
rule Splice {
  head Out(X) = wrapped -> V
  from X = in -> V
}
`
	inputs := storeOf(t, `i: in < deep < nest < 1 > > >`)
	res := runRule(t, src, inputs)
	out, _ := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("i")}))
	want := tree.MustParse(`wrapped < deep < nest < 1 > > >`)
	if !out.Equal(want) {
		t.Errorf("splice:\n got: %s\nwant: %s", out, want)
	}
}

func TestConstructGlobalAggregation(t *testing.T) {
	// A head Skolem with no arguments aggregates across ALL inputs
	// (Skolems are global to the program).
	src := `
rule All {
  head Out = all -[N]> N
  from X = item -> N
}
`
	inputs := storeOf(t, `a: item < 3 >
	                      b: item < 1 >
	                      c: item < 2 >
	                      d: item < 1 >`)
	res := runRule(t, src, inputs)
	out, ok := res.Outputs.Get(tree.PlainName("Out"))
	if !ok {
		t.Fatalf("global output missing:\n%s", tree.FormatStore(res.Outputs))
	}
	want := tree.MustParse(`all < 1, 2, 3 >`)
	if !out.Equal(want) {
		t.Errorf("global aggregation:\n got: %s\nwant: %s", out, want)
	}
}

func TestDerefInliningChain(t *testing.T) {
	// A chain of dereferenced Skolems: Out includes Mid includes Leaf.
	src := `
rule A {
  head Leaf(N) = leafval -> N
  from X = item -> N
}
rule B {
  head Mid(N) = midval -> ^Leaf(N)
  from X = item -> N
}
rule C {
  head Out(N) = outval -> ^Mid(N)
  from X = item -> N
}
`
	inputs := storeOf(t, `a: item < 7 >`)
	res := runRule(t, src, inputs)
	out, _ := res.Outputs.Get(tree.SkolemName("Out", tree.Int(7)))
	want := tree.MustParse(`outval < midval < leafval < 7 > > >`)
	if !out.Equal(want) {
		t.Errorf("deref chain:\n got: %s\nwant: %s", out, want)
	}
	// The intermediate values are also fully expanded in place.
	mid, _ := res.Outputs.Get(tree.SkolemName("Mid", tree.Int(7)))
	if !mid.Equal(tree.MustParse(`midval < leafval < 7 > >`)) {
		t.Errorf("mid not expanded: %s", mid)
	}
}

func TestDerefMissingValueFails(t *testing.T) {
	src := `
rule Broken {
  head Out(N) = v -> ^Ghost(N)
  from X = item -> N
}
`
	prog := yatl.MustParse("program p\n" + src)
	inputs := storeOf(t, `a: item < 1 >`)
	_, err := Run(prog, inputs, nil)
	if err == nil || !strings.Contains(err.Error(), "no associated value") {
		t.Errorf("missing deref target should fail, got %v", err)
	}
}

func TestRefToMissingValueWarns(t *testing.T) {
	src := `
rule Dangling {
  head Out(N) = v -> &Ghost(N)
  from X = item -> N
}
`
	prog := yatl.MustParse("program p\n" + src)
	inputs := storeOf(t, `a: item < 1 >`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "dangling") {
		t.Errorf("expected dangling warning, got %v", res.Warnings)
	}
}

func TestMultiBodyThreeWayJoin(t *testing.T) {
	src := `
rule Three {
  head Out(K) = joined < -> A, -> B, -> C >
  from X = t1 -*> r < -> k -> K, -> v -> A >
  from Y = t2 -*> r < -> k -> K, -> v -> B >
  from Z = t3 -*> r < -> k -> K, -> v -> C >
}
`
	inputs := storeOf(t, `
	  x: t1 < r < k < 1 >, v < "a1" > >, r < k < 2 >, v < "a2" > > >
	  y: t2 < r < k < 1 >, v < "b1" > >, r < k < 3 >, v < "b3" > > >
	  z: t3 < r < k < 1 >, v < "c1" > >, r < k < 2 >, v < "c2" > > >
	`)
	res := runRule(t, src, inputs)
	// Only key 1 appears in all three tables.
	if res.Outputs.Len() != 1 {
		t.Fatalf("outputs = %d:\n%s", res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
	out, _ := res.Outputs.Get(tree.SkolemName("Out", tree.Int(1)))
	if !out.Equal(tree.MustParse(`joined < "a1", "b1", "c1" >`)) {
		t.Errorf("three-way join: %s", out)
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	// A program that keeps discovering new subtree activations; the
	// guard must stop it. (Safe-recursive, so statically accepted —
	// the guard is about resource bounding, not correctness.)
	src := `
rule Base {
  head F(X) = w
  from X = n
}
rule R {
  head F(X) = w -*> ^F(Y)
  from X = n -*> Y
}
`
	prog := yatl.MustParse("program p\n" + src)
	deep := tree.Sym("n")
	cur := deep
	for i := 0; i < 30; i++ {
		next := tree.Sym("n")
		cur.Add(next)
		cur = next
	}
	inputs := tree.NewStore()
	inputs.Put(tree.PlainName("d"), deep)
	// Plenty of rounds: converges fine.
	if _, err := Run(prog, inputs, &Options{MaxRounds: 100}); err != nil {
		t.Errorf("deep recursion should converge: %v", err)
	}
	// Starved of rounds: the guard fires.
	if _, err := Run(prog, inputs, &Options{MaxRounds: 3}); err == nil ||
		!strings.Contains(err.Error(), "did not converge") {
		t.Errorf("round guard should fire, got %v", err)
	}
}

func TestUnboundHeadVariableWarns(t *testing.T) {
	// A head variable that no body pattern binds: the binding is
	// dropped with a warning (not a crash).
	src := `
rule Oops {
  head Out(N) = v -> Missing
  from X = item -> N
}
`
	prog := yatl.MustParse("program p\n" + src)
	inputs := storeOf(t, `a: item < 1 >`)
	_, err := Run(prog, inputs, nil)
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("unbound head variable should error, got: %v", err)
	}
}

func TestSkolemConstArgs(t *testing.T) {
	src := `
rule K {
  head Out("fixed", N) = v -> N
  from X = item -> N
}
`
	inputs := storeOf(t, `a: item < 5 >`)
	res := runRule(t, src, inputs)
	oid := tree.SkolemName("Out", tree.String("fixed"), tree.Int(5))
	if _, ok := res.Outputs.Get(oid); !ok {
		t.Errorf("constant Skolem arg lost:\n%s", tree.FormatStore(res.Outputs))
	}
}

func TestWarningOnRaisedLet(t *testing.T) {
	src := `
rule R {
  head Out(N) = v -> M
  from X = item -> N
  let M = raise(N)
}
`
	prog := yatl.MustParse("program p\n" + src)
	inputs := storeOf(t, `a: item < 1 >`)
	if _, err := Run(prog, inputs, nil); err == nil ||
		!strings.Contains(err.Error(), "exception raised") {
		t.Errorf("raise in let should abort the run, got %v", err)
	}
}

// TestRaiseStopsEvaluation: a raised error aborts the run at the
// binding that raised it; no later binding is evaluated.
func TestRaiseStopsEvaluation(t *testing.T) {
	calls := 0
	reg := NewRegistry()
	reg.Register(Func{
		Name: "count_or_raise", Params: []ParamType{Text}, Result: Text,
		Fn: func(args []tree.Value) (tree.Value, error) {
			calls++
			if args[0].Display() == `"boom"` {
				return nil, ErrRaised{Msg: "boom"}
			}
			return args[0], nil
		},
	})
	prog := yatl.MustParse(`
program p
rule R {
  head Pout(X) = out -> V
  from X = in -> D
  let V = count_or_raise(D)
}
`)
	inputs := tree.NewStore()
	inputs.Put(tree.PlainName("i1"), tree.Sym("in", tree.Str("boom")))
	for i := 2; i <= 6; i++ {
		inputs.Put(tree.PlainName(fmt.Sprintf("i%d", i)), tree.Sym("in", tree.Str("x")))
	}
	_, err := Run(prog, inputs, WithRegistry(reg))
	if err == nil || !strings.Contains(err.Error(), "exception raised") {
		t.Fatalf("err = %v, want the raised exception", err)
	}
	if calls != 1 {
		t.Errorf("count_or_raise called %d times, want 1: evaluation must stop at the raising binding", calls)
	}
}

func TestPredicateCrossKindNumericEquality(t *testing.T) {
	// Int 1 == Float 1.0 in predicates (regression: Compare
	// tie-breaks equal numerics by kind for sort determinism, which
	// must not leak into equality).
	src := `
rule Eq {
  head Out(X) = matched -> V
  from X = in < -> a -> V, -> b -> W >
  where V == W
}
`
	inputs := storeOf(t, `
	  same: in < a < 1 >, b < 1.0 > >
	  diff: in < a < 1 >, b < 2.0 > >
	`)
	res := runRule(t, src, inputs)
	if res.Outputs.Len() != 1 {
		t.Fatalf("outputs = %d, want 1:\n%s", res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
	if _, ok := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("same")})); !ok {
		t.Error("Int 1 should equal Float 1.0 in a predicate")
	}
}
