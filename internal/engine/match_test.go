package engine

import (
	"slices"
	"testing"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

func pat(t *testing.T, src string) *pattern.PTree {
	t.Helper()
	pt, err := yatl.ParsePattern(src)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestMatchConstAndVar(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`a < b < 1 >, c < "x" > >`)
	bs := m.MatchTree(pat(t, `a < -> b -> X, -> c -> Y >`), n)
	if len(bs) != 1 {
		t.Fatalf("bindings = %d, want 1", len(bs))
	}
	if !bs[0]["X"].Equal(tree.Int(1)) || !bs[0]["Y"].Equal(tree.String("x")) {
		t.Errorf("binding = %v", bs[0])
	}
	if m.Matches(pat(t, `a -> wrong`), n) {
		t.Error("wrong structure should not match")
	}
}

func TestMatchStarIterates(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`l < i < 1 >, i < 2 >, i < 3 > >`)
	bs := m.MatchTree(pat(t, `l -*> i -> X`), n)
	if len(bs) != 3 {
		t.Fatalf("bindings = %d, want 3", len(bs))
	}
	for i, want := range []int64{1, 2, 3} {
		if !bs[i]["X"].Equal(tree.Int(want)) {
			t.Errorf("binding %d = %v", i, bs[i])
		}
	}
}

func TestMatchStarRequiresAllChildrenMatch(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`l < i < 1 >, other < 2 > >`)
	if m.Matches(pat(t, `l -*> i -> X`), n) {
		t.Error("a non-matching child inside the star run should fail the pattern")
	}
}

func TestMatchStarEmptyWithVars(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`l`)
	// Star over a variable subtree with no children: no valuation of
	// X exists, so no bindings.
	if bs := m.MatchTree(pat(t, `l -*> i -> X`), n); len(bs) != 0 {
		t.Errorf("empty star with vars should give no bindings, got %v", bs)
	}
	// Without variables the star is a pure structural constraint.
	if !m.Matches(pat(t, `l -*> i`), n) {
		t.Error("variable-free empty star should match")
	}
}

func TestMatchMixedOneAndStar(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`r < head < 0 >, i < 1 >, i < 2 >, tail < 9 > >`)
	bs := m.MatchTree(pat(t, `r < -> head -> H, -*> i -> X, -> tail -> T >`), n)
	if len(bs) != 2 {
		t.Fatalf("bindings = %d, want 2: %v", len(bs), bs)
	}
	for _, b := range bs {
		if !b["H"].Equal(tree.Int(0)) || !b["T"].Equal(tree.Int(9)) {
			t.Errorf("binding = %v", b)
		}
	}
}

func TestMatchIndexBindsPositions(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`v < a, b, c >`)
	bs := m.MatchTree(pat(t, `v -#I> X`), n)
	if len(bs) != 3 {
		t.Fatalf("bindings = %d", len(bs))
	}
	for i, b := range bs {
		if !b["I"].Equal(tree.Int(int64(i + 1))) {
			t.Errorf("binding %d index = %v", i, b["I"])
		}
	}
}

func TestMatchNestedIndexes(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`m < r < x < 1 >, x < 2 > >, r < x < 3 >, x < 4 > > >`)
	bs := m.MatchTree(pat(t, `m -#I> R -#J> x -> A`), n)
	if len(bs) != 4 {
		t.Fatalf("bindings = %d, want 4", len(bs))
	}
	// Positions are 1-based per parent.
	found := map[string]bool{}
	for _, b := range bs {
		found[b["I"].Display()+","+b["J"].Display()+"="+b["A"].Display()] = true
	}
	for _, want := range []string{"1,1=1", "1,2=2", "2,1=3", "2,2=4"} {
		if !found[want] {
			t.Errorf("missing combination %s in %v", want, found)
		}
	}
}

func TestMatchRepeatedVariableMustAgree(t *testing.T) {
	m := &Matcher{}
	same := tree.MustParse(`p < a < 1 >, b < 1 > >`)
	diff := tree.MustParse(`p < a < 1 >, b < 2 > >`)
	pt := pat(t, `p < -> a -> X, -> b -> X >`)
	if !m.Matches(pt, same) {
		t.Error("equal values should match repeated variable")
	}
	if m.Matches(pt, diff) {
		t.Error("distinct values should not match repeated variable")
	}
}

func TestMatchLeafVarBindsSubtree(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`a < b < c < 1 > > >`)
	bs := m.MatchTree(pat(t, `a -> X`), n)
	if len(bs) != 1 {
		t.Fatal("no match")
	}
	tv, ok := bs[0]["X"].(tree.TreeVal)
	if !ok || !tv.Root.Equal(tree.MustParse(`b < c < 1 > >`)) {
		t.Errorf("X = %v, want subtree", bs[0]["X"])
	}
}

func TestMatchLeafVarBindsRef(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`a -> &s1`)
	bs := m.MatchTree(pat(t, `a -> X`), n)
	if len(bs) != 1 {
		t.Fatal("no match")
	}
	if _, ok := bs[0]["X"].(tree.Ref); !ok {
		t.Errorf("X = %v, want Ref", bs[0]["X"])
	}
}

func TestMatchDomains(t *testing.T) {
	m := &Matcher{}
	str := tree.MustParse(`a < "x" >`)
	num := tree.MustParse(`a < 5 >`)
	pt := pat(t, `a -> X : string`)
	if !m.Matches(pt, str) || m.Matches(pt, num) {
		t.Error("string domain filter wrong")
	}
	symPat := pat(t, `X : (set|bag) -*> Y`)
	if !m.Matches(symPat, tree.MustParse(`set < 1, 2 >`)) {
		t.Error("(set|bag) should match set node")
	}
	if m.Matches(symPat, tree.MustParse(`list < 1, 2 >`)) {
		t.Error("(set|bag) should not match list node")
	}
}

func TestMatchPatternDomainWithModel(t *testing.T) {
	store := pattern.GolfStore()
	m := &Matcher{Store: store, Model: pattern.ODMGModel()}
	c1, _ := store.Get(tree.PlainName("c1"))
	// Attributes of a class object all have Ptype-conformant values.
	bs := m.MatchTree(pat(t, `class -> Class_name -*> Att -> P2 : Ptype`), c1)
	if len(bs) != 3 {
		t.Fatalf("bindings = %d, want 3 (name, desc, suppliers)", len(bs))
	}
	// A non-conforming attribute value fails the whole pattern: the
	// star run must cover every child of the class node (strict
	// ordered-sequence semantics — "no conversion will be performed
	// on it, but no error will occur", §3.5).
	broken := c1.Clone()
	broken.Children[0].Children[0].Children[0] = tree.Sym("weird", tree.Sym("deep", tree.Sym("leaf")))
	bs = m.MatchTree(pat(t, `class -> Class_name -*> Att -> P2 : Ptype`), broken)
	if len(bs) != 0 {
		t.Fatalf("bindings = %d, want 0 for a non-ODMG object", len(bs))
	}
}

func TestMatchRefPattern(t *testing.T) {
	m := &Matcher{}
	refLeaf := tree.MustParse(`set < &s1, &s2 >`)
	bs := m.MatchTree(pat(t, `set -*> &Psup`), refLeaf)
	if len(bs) != 1 {
		// No variables under the star: single structural binding.
		t.Fatalf("bindings = %d, want 1", len(bs))
	}
	if m.Matches(pat(t, `set -*> &Psup`), tree.MustParse(`set < plain >`)) {
		t.Error("non-reference child should not match &P")
	}
}

func TestMatchSkolemArgsBinding(t *testing.T) {
	m := &Matcher{}
	n := tree.New(tree.Symbol("set"),
		tree.RefLeaf(tree.SkolemName("Psup", tree.String("VW"))),
		tree.RefLeaf(tree.SkolemName("Psup", tree.String("Audi"))))
	bs := m.MatchTree(pat(t, `set -*> &Psup(SN)`), n)
	if len(bs) != 2 {
		t.Fatalf("bindings = %d, want 2", len(bs))
	}
	if !bs[0]["SN"].Equal(tree.String("VW")) || !bs[1]["SN"].Equal(tree.String("Audi")) {
		t.Errorf("bindings = %v", bs)
	}
	// A reference minted by another functor does not match when args
	// are requested.
	other := tree.New(tree.Symbol("set"), tree.RefLeaf(tree.SkolemName("Pcar", tree.String("VW"))))
	if m.Matches(pat(t, `set -*> &Psup(SN)`), other) {
		t.Error("wrong functor should not match &Psup(SN)")
	}
}

func TestMatchMultipleStarsBacktrack(t *testing.T) {
	m := &Matcher{}
	n := tree.MustParse(`s < a < 1 >, a < 2 >, b < 3 >, b < 4 > >`)
	bs := m.MatchTree(pat(t, `s < -*> a -> X, -*> b -> Y >`), n)
	// 2 a-alternatives × 2 b-alternatives.
	if len(bs) != 4 {
		t.Fatalf("bindings = %d, want 4: %v", len(bs), bs)
	}
}

func TestHierarchyConflicts(t *testing.T) {
	prog := yatl.MustParse(yatl.WebProgramSource)
	model, _ := prog.Model("ODMG")
	h := BuildHierarchy(prog, model)
	pairs := h.Conflicts
	want := map[[2]string]bool{
		{"Web3", "Web2"}: true,
		{"Web4", "Web2"}: true,
		{"Web5", "Web2"}: true,
		{"Web6", "Web2"}: true,
	}
	if len(pairs) != len(want) {
		t.Fatalf("conflicts = %v, want %v", pairs, want)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected conflict %v", p)
		}
	}
	// Group order: every specific rule precedes Web2.
	group := h.Groups["HtmlElement"]
	pos := map[string]int{}
	for i, r := range group {
		pos[r.Name] = i
	}
	for _, specific := range []string{"Web3", "Web4", "Web5", "Web6"} {
		if pos[specific] >= pos["Web2"] {
			t.Errorf("%s should precede Web2 in the hierarchy", specific)
		}
	}
}

func TestHierarchyUserOrder(t *testing.T) {
	src := `
program p
order B before A
rule A {
  head F(X) = out -> V
  from X = in -> V
}
rule B {
  head F(X) = out2 -> V
  from X = in -> V
}
`
	prog := yatl.MustParse(src)
	h := BuildHierarchy(prog, nil)
	group := h.Groups["F"]
	if group[0].Name != "B" {
		t.Errorf("user order should put B first, got %s", group[0].Name)
	}
	if len(h.Blocks["B"]) != 1 || h.Blocks["B"][0] != "A" {
		t.Errorf("B should block A: %v", h.Blocks)
	}
}

func TestSafetyAcceptsAcyclic(t *testing.T) {
	for _, src := range []string{yatl.SGMLToODMGSource, yatl.SGMLToODMGPrimeSource} {
		if err := CheckSafety(yatl.MustParse(src)); err != nil {
			t.Errorf("acyclic program rejected: %v", err)
		}
	}
}

func TestSafetyRejectsCyclic(t *testing.T) {
	if err := CheckSafety(yatl.MustParse(yatl.CyclicProgramSource)); err == nil {
		t.Error("cyclic program accepted")
	}
}

func TestSafetySelfLoopRequiresSafeRecursion(t *testing.T) {
	// Recursion on the whole input (not a proper subtree) is unsafe.
	unsafe := `
program p
rule R {
  head F(X) = wrap -> ^F(X)
  from X = node -*> Y
}
`
	if err := CheckSafety(yatl.MustParse(unsafe)); err == nil {
		t.Error("self-recursion on the whole input should be rejected")
	}
	// Recursion on a proper subtree with the body variable as sole
	// Skolem parameter is safe.
	safe := `
program p
rule R {
  head F(X) = wrap -*> ^F(Y)
  from X = node -*> Y
}
`
	if err := CheckSafety(yatl.MustParse(safe)); err != nil {
		t.Errorf("safe-recursive program rejected: %v", err)
	}
	// A data variable as the Skolem parameter breaks the condition.
	badParam := `
program p
rule R {
  head F(V) = wrap -*> ^F(Y)
  from X = node < -> V, -*> i -> Y >
}
`
	if err := CheckSafety(yatl.MustParse(badParam)); err == nil {
		t.Error("non-body-variable Skolem parameter should be rejected")
	}
}

func TestSafetyIndirectCycle(t *testing.T) {
	src := `
program p
rule A {
  head F(SN) = fa -> ^G(SN)
  from X = a -> SN
}
rule B {
  head G(SN) = fb -> ^F(SN)
  from X = b -> SN
}
`
	if err := CheckSafety(yatl.MustParse(src)); err == nil {
		t.Error("two-step deref cycle should be rejected")
	}
	// Replacing one deref by a reference breaks the cycle.
	okSrc := `
program p
rule A {
  head F(SN) = fa -> &G(SN)
  from X = a -> SN
}
rule B {
  head G(SN) = fb -> ^F(SN)
  from X = b -> SN
}
`
	if err := CheckSafety(yatl.MustParse(okSrc)); err != nil {
		t.Errorf("reference should break the cycle: %v", err)
	}
}

func TestBindingMergeAndJoin(t *testing.T) {
	vars := []string{"X", "Y", "Z", "K", "V", "W", "Q"}
	var tab values
	tab.reset()
	fr := func(b Binding) frame {
		f := make(frame, len(vars))
		for i, v := range vars {
			if val, ok := b[v]; ok {
				f[i] = tab.add(val)
			}
		}
		return f
	}
	frs := func(bs ...Binding) []frame {
		out := make([]frame, len(bs))
		for i, b := range bs {
			out[i] = fr(b)
		}
		return out
	}
	pl := &PatternPlan{vars: vars}
	keys := func(fs []frame) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = pl.binding(&tab, f).Key()
		}
		return out
	}

	a := Binding{"X": tree.Int(1), "Y": tree.String("a")}
	b := Binding{"Y": tree.String("a"), "Z": tree.Int(2)}
	if m := fr(a); !tab.merge(m, fr(b)) || len(pl.binding(&tab, m)) != 3 {
		t.Errorf("merge = %v", pl.binding(&tab, m))
	}
	if tab.merge(fr(a), fr(Binding{"Y": tree.String("other")})) {
		t.Error("conflicting merge should fail")
	}

	as := []Binding{{"K": tree.Int(1), "V": tree.String("a")}, {"K": tree.Int(2), "V": tree.String("b")}}
	bs := []Binding{{"K": tree.Int(2), "W": tree.String("w")}, {"K": tree.Int(3), "W": tree.String("x")}}
	cs := []Binding{{"Q": tree.Int(9)}}
	var sl frameSlab
	var jn joiner
	j := jn.hashJoin(&tab, &sl, nil, frs(as...), frs(bs...))
	if len(j) != 1 || !tab.vals[j[0][4]].Equal(tree.String("b")) {
		t.Errorf("join = %v", keys(j))
	}
	// No shared vars → Cartesian product.
	if got := jn.hashJoin(&tab, &sl, nil, frs(as...), frs(cs...)); len(got) != 2 {
		t.Errorf("cartesian join = %v", keys(got))
	}
	// Both agree with the reference map join, order included — on
	// shared keys, on a Cartesian product, and where a shared variable
	// holds values of two kinds with one display form.
	ds := []Binding{{"K": tree.Int(2), "W": tree.Symbol("y")}, {"K": tree.Float(2), "W": tree.Symbol("z")}, {"K": tree.Int(2)}}
	for _, tc := range [][2][]Binding{{as, bs}, {as, cs}, {bs, ds}, {ds, as}, {ds, ds}} {
		want := refHashJoin(tc[0], tc[1])
		got := keys(jn.hashJoin(&tab, &sl, nil, frs(tc[0]...), frs(tc[1]...)))
		wantKeys := make([]string, len(want))
		for i, b := range want {
			wantKeys[i] = b.Key()
		}
		if !slices.Equal(got, wantKeys) {
			t.Errorf("hashJoin(%v, %v) = %q, reference %q", tc[0], tc[1], got, wantKeys)
		}
	}
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	v, typed, err := r.Call("city", []tree.Value{tree.String("12 Bd Lenoir, 75005 Paris")})
	if err != nil || !typed || !v.Equal(tree.String("Paris")) {
		t.Errorf("city = %v, %v, %v", v, typed, err)
	}
	v, _, _ = r.Call("zip", []tree.Value{tree.String("12 Bd Lenoir, 75005 Paris")})
	if !v.Equal(tree.Int(75005)) {
		t.Errorf("zip = %v", v)
	}
	// Type filter: an int is not a Text argument.
	_, typed, err = r.Call("city", []tree.Value{tree.Int(5)})
	if err != nil || typed {
		t.Errorf("type filter should reject without error: %v %v", typed, err)
	}
	ok, typed, err := r.CallBool("sameaddress", []tree.Value{
		tree.String("12 Bd Lenoir, 75005 Paris"), tree.String("Paris"), tree.String("Bd Lenoir")})
	if err != nil || !typed || !ok {
		t.Errorf("sameaddress = %v %v %v", ok, typed, err)
	}
	ok, _, _ = r.CallBool("sameaddress", []tree.Value{
		tree.String("12 Bd Lenoir, 75005 Paris"), tree.String("Lyon"), tree.String("Bd Lenoir")})
	if ok {
		t.Error("different city should not match")
	}
	if _, _, err := r.Call("nosuch", nil); err == nil {
		t.Error("unknown function should error")
	}
	v, _, err = r.Call("attr_label", []tree.Value{tree.Symbol("name")})
	if err != nil || !v.Equal(tree.String("name: ")) {
		t.Errorf("attr_label = %v %v", v, err)
	}
}

func TestRegistryArithAndStrings(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		fn   string
		args []tree.Value
		want tree.Value
	}{
		{"add", []tree.Value{tree.Int(2), tree.Int(3)}, tree.Int(5)},
		{"add", []tree.Value{tree.Int(2), tree.Float(0.5)}, tree.Float(2.5)},
		{"sub", []tree.Value{tree.Int(7), tree.Int(3)}, tree.Int(4)},
		{"mul", []tree.Value{tree.Int(4), tree.Int(3)}, tree.Int(12)},
		{"concat", []tree.Value{tree.String("a"), tree.String("b")}, tree.String("ab")},
		{"lower", []tree.Value{tree.String("AbC")}, tree.String("abc")},
		{"upper", []tree.Value{tree.String("AbC")}, tree.String("ABC")},
		{"length", []tree.Value{tree.String("abcd")}, tree.Int(4)},
		{"to_int", []tree.Value{tree.String("42")}, tree.Int(42)},
		{"to_int", []tree.Value{tree.String("-7")}, tree.Int(-7)},
		{"to_int", []tree.Value{tree.Float(3.9)}, tree.Int(3)},
		{"to_int", []tree.Value{tree.Bool(true)}, tree.Int(1)},
		{"to_string", []tree.Value{tree.Int(9)}, tree.String("9")},
		{"data_to_string", []tree.Value{tree.String("x")}, tree.String("x")},
	}
	for _, c := range cases {
		v, typed, err := r.Call(c.fn, c.args)
		if err != nil || !typed || !v.Equal(c.want) {
			t.Errorf("%s(%v) = %v (%v, %v), want %v", c.fn, c.args, v, typed, err, c.want)
		}
	}
	if _, _, err := r.Call("to_int", []tree.Value{tree.String("abc")}); err == nil {
		t.Error("to_int on non-number should error")
	}
	if _, _, err := r.Call("raise", []tree.Value{tree.String("boom")}); err == nil {
		t.Error("raise should error")
	}
}
