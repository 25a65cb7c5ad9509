package engine

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
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
rule D {
  head Alias(N) = ^Mid(N)
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
	// A head that is a dereference is replaced whole.
	alias, _ := res.Outputs.Get(tree.SkolemName("Alias", tree.Int(7)))
	if !alias.Equal(mid) {
		t.Errorf("alias = %s, want %s", alias, mid)
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

// TestActivationDedup feeds a single-pattern rule inputs that yield the
// same frame more than once — two identical suppliers, and twenty
// suppliers that repeat ten names — and checks that each frame is kept once, in first-occurrence order.
// The mutant that keeps every frame is caught.
func TestActivationDedup(t *testing.T) {
	prog := yatl.MustParse(`program p
rule Sups {
  head Pout(X) = out -*> sup -> SN
  from X = brochure -*> supplier -> name -> SN
}
`)
	var many strings.Builder
	many.WriteString("b2: brochure < ")
	for i := 0; i < 20; i++ {
		if i > 0 {
			many.WriteString(", ")
		}
		fmt.Fprintf(&many, `supplier < name < "s%d" > >`, i%10)
	}
	many.WriteString(" >")
	inputs := storeOf(t, `b1: brochure < supplier < name < "VW" > >, supplier < name < "VW" > > >
`+many.String())
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Bindings != 11 {
		t.Errorf("bindings = %d, want 11", res.Stats.Bindings)
	}
	b1, _ := res.Outputs.Get(tree.SkolemName("Pout", tree.Ref{Name: tree.PlainName("b1")}))
	if want := tree.MustParse(`out < sup < "VW" > >`); !b1.Equal(want) {
		t.Errorf("Pout(&b1) = %s, want %s", b1, want)
	}
	b2, _ := res.Outputs.Get(tree.SkolemName("Pout", tree.Ref{Name: tree.PlainName("b2")}))
	if got := b2.String(); got != `out < sup < "s0" >, sup < "s1" >, sup < "s2" >, sup < "s3" >, sup < "s4" >, sup < "s5" >, sup < "s6" >, sup < "s7" >, sup < "s8" >, sup < "s9" > >` {
		t.Errorf("Pout(&b2) = %s", got)
	}

	// The same through one activation at a time: keep is how the run
	// adds an activation's frames to the rule's raw bindings.
	rawAfter := func(keep func(*run, *ruleState, *matchCtx)) []int {
		r := &run{scratch: &scratch{matcher: Matcher{Store: inputs}}}
		r.tab.reset()
		var out []int
		for _, e := range inputs.Entries() {
			s := &ruleState{plan: compileRule(prog.Rules[0])}
			id := tree.Ref{Name: e.Name}
			r.activate(tree.AppendBinaryKey(nil, id), id, e.Tree, true)
			c := r.matcher.getCtx(&r.tab)
			r.matchBodyPattern(c, s.plan, &s.plan.bodies[0], &r.active[len(r.active)-1])
			keep(r, s, c)
			r.matcher.putCtx(c)
			out = append(out, len(s.raw))
		}
		return out
	}
	if got := rawAfter((*run).addMatched); !slices.Equal(got, []int{1, 10}) {
		t.Errorf("frames kept per activation = %v, want [1 10]", got)
	}
	keepAll := func(r *run, s *ruleState, c *matchCtx) {
		for i := 0; i < c.top; i++ {
			s.raw = append(s.raw, r.keepFrame(c.frame(i)))
		}
	}
	if got := rawAfter(keepAll); slices.Equal(got, []int{1, 10}) {
		t.Errorf("the mutant that skips the dedup kept %v frames, and was not caught", got)
	}
}

// inlinedDanglingProgram inlines each Body value into an earlier Page
// entry; both hold references that resolve nowhere.
const inlinedDanglingProgram = `
rule Page {
  head Page(N) = page < -> title -> N, -> body -> ^Body(N), -> also -> &Gone(N), -> lost -> &Lost >
  from X = in -> N
}
rule Body {
  head Body(N) = body < -> link -> &Missing(N), -> home -> &Page(N), -> lost -> &Lost >
  from X = in -> N
}
`

// TestDanglingRefsInInlinedTargets pins the order of the dangling
// warnings when the reference sits in a ^P target that is inlined
// ahead of its own entry: the first occurrence in preorder over the
// final trees in entry order, which a walk of those trees (the oracle)
// reports.
func TestDanglingRefsInInlinedTargets(t *testing.T) {
	prog := yatl.MustParse("program p\n" + inlinedDanglingProgram)
	inputs := storeOf(t, `a: in < 1 >
b: in < 2 >`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"dangling reference &Missing(1) in output",
		"dangling reference &Lost in output",
		"dangling reference &Gone(1) in output",
		"dangling reference &Missing(2) in output",
		"dangling reference &Gone(2) in output",
	}
	if !slices.Equal(res.Warnings, want) {
		t.Errorf("warnings:\n got %q\nwant %q", res.Warnings, want)
	}
	var walked []string
	seen := map[string]bool{}
	for _, e := range res.Outputs.Entries() {
		e.Tree.Walk(func(n *tree.Node) bool {
			if name, ok := n.RefName(); ok && !res.Outputs.Has(name) && !inputs.Has(name) && !seen[name.Key()] {
				seen[name.Key()] = true
				walked = append(walked, fmt.Sprintf("dangling reference &%s in output", name))
			}
			return true
		})
	}
	if !slices.Equal(res.Warnings, walked) {
		t.Errorf("warnings differ from a walk of the final trees:\n got %q\nwalk %q", res.Warnings, walked)
	}
}

// TestDerefSharesExpandedValues pins the dereferencing pass's sharing:
// a value inlined at several places is its entry's own tree, and
// nothing writes it afterwards — not the pass, not a second run over
// the same inputs, not a run that takes the outputs as its inputs — so
// the digests of the inputs and of the outputs hold, and the dangling
// warnings keep the order of TestDanglingRefsInInlinedTargets.
func TestDerefSharesExpandedValues(t *testing.T) {
	prog := yatl.MustParse("program p\n" + inlinedDanglingProgram + `
rule Twice {
  head Twice(N) = twice < -> first -> ^Body(N), -> second -> ^Body(N) >
  from X = in -> N
}`)
	// The next stage copies a subtree of the shared values out.
	next := yatl.MustParse(`program q
rule Copy {
  head Copy(N) = copy -> B
  from P = page < -> title -> N, -> body -> B, -> also -> G, -> lost -> L >
}`)
	inputs := storeOf(t, "a: in < 1 >\nb: in < 2 >")
	digest := func(s *tree.Store) [sha256.Size]byte { return sha256.Sum256([]byte(tree.FormatStore(s))) }
	inputsDigest := digest(inputs)
	first, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 2} {
		get := func(functor string) *tree.Node {
			node, ok := first.Outputs.Get(tree.SkolemName(functor, tree.Int(n)))
			if !ok {
				t.Fatalf("%s(%d) missing:\n%s", functor, n, tree.FormatStore(first.Outputs))
			}
			return node
		}
		body, page, twice := get("Body"), get("Page"), get("Twice")
		want := tree.MustParse(fmt.Sprintf(`body < link < &Missing(%d) >, home < &Page(%d) >, lost < &Lost > >`, n, n))
		if !body.Equal(want) {
			t.Errorf("Body(%d) = %s, want %s", n, body, want)
		}
		for i, inlined := range []*tree.Node{page.Children[1].Children[0], twice.Children[0].Children[0], twice.Children[1].Children[0]} {
			if inlined != body {
				t.Errorf("inlining %d of Body(%d) is a copy, not the entry's tree", i, n)
			}
		}
	}
	wantWarnings := []string{
		"dangling reference &Missing(1) in output",
		"dangling reference &Lost in output",
		"dangling reference &Gone(1) in output",
		"dangling reference &Missing(2) in output",
		"dangling reference &Gone(2) in output",
	}
	if !slices.Equal(first.Warnings, wantWarnings) {
		t.Errorf("warnings:\n got %q\nwant %q", first.Warnings, wantWarnings)
	}
	outputsDigest := digest(first.Outputs)

	second, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Run(next, first.Outputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if copied.Outputs.Len() != 2 {
		t.Errorf("next stage built %d outputs, want 2:\n%s", copied.Outputs.Len(), tree.FormatStore(copied.Outputs))
	}
	if digest(inputs) != inputsDigest {
		t.Errorf("the inputs changed under the runs:\n%s", tree.FormatStore(inputs))
	}
	if digest(first.Outputs) != outputsDigest {
		t.Errorf("the first run's outputs changed under later runs:\n%s", tree.FormatStore(first.Outputs))
	}
	if digest(second.Outputs) != outputsDigest || !slices.Equal(second.Warnings, wantWarnings) {
		t.Errorf("a second run differs:\n%s\n%q", tree.FormatStore(second.Outputs), second.Warnings)
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
	// A program that keeps discovering new subtree activations, one
	// round per level of its input; the guard must stop it. (Safe-
	// recursive, so statically accepted — the guard is about resource
	// bounding, not correctness.) An input deeper than maxRounds runs
	// for seconds, each activation keying its whole subtree, so the
	// test lowers the compiled bound instead.
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
	chain := func(depth int) *tree.Store {
		deep := tree.Sym("n")
		cur := deep
		for i := 0; i < depth; i++ {
			next := tree.Sym("n")
			cur.Add(next)
			cur = next
		}
		inputs := tree.NewStore()
		inputs.Put(tree.PlainName("d"), deep)
		return inputs
	}
	c, err := Compile(prog)
	if err != nil || c.roundBound != maxRounds {
		t.Fatalf("compiled bound %d, err %v; want %d", c.roundBound, err, maxRounds)
	}
	c.roundBound = 100
	// Within the bound: converges fine.
	if _, err := c.Run(nil, chain(30)); err != nil {
		t.Errorf("deep recursion should converge: %v", err)
	}
	// Past it: the guard fires.
	var fe *FixpointError
	if _, err := c.Run(nil, chain(110)); !errors.As(err, &fe) || fe.Rounds != 100 ||
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
