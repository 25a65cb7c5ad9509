package tree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		disp string
	}{
		{Symbol("class"), KindSymbol, "class"},
		{String("Golf"), KindString, `"Golf"`},
		{Int(1995), KindInt, "1995"},
		{Float(1.5), KindFloat, "1.5"},
		{Float(2), KindFloat, "2.0"},
		{Bool(true), KindBool, "true"},
		{Ref{Name: PlainName("s1")}, KindRef, "&s1"},
		{Ref{Name: SkolemName("Psup", String("VW"))}, KindRef, `&Psup("VW")`},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.Display() != c.disp {
			t.Errorf("%v: display = %q, want %q", c.v, c.v.Display(), c.disp)
		}
		if !c.v.Equal(c.v) {
			t.Errorf("%v not Equal to itself", c.v)
		}
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	vals := []Value{Symbol("x"), String("x"), Int(1), Float(1), Bool(true)}
	for i, a := range vals {
		for j, b := range vals {
			if (i == j) != a.Equal(b) {
				t.Errorf("Equal(%v, %v) = %v, want %v", a, b, a.Equal(b), i == j)
			}
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// Mixed numerics compare numerically.
	if Compare(Int(2), Float(3.5)) >= 0 {
		t.Error("Int(2) should sort before Float(3.5)")
	}
	if Compare(Float(10), Int(2)) <= 0 {
		t.Error("Float(10) should sort after Int(2)")
	}
	// Strings order lexicographically.
	if Compare(String("VW center"), String("VW2")) >= 0 {
		t.Error(`"VW center" < "VW2" expected (space < '2')`)
	}
	// Equal values compare 0.
	for _, v := range []Value{Symbol("a"), String("a"), Int(1), Float(1.5), Bool(false)} {
		if Compare(v, v) != 0 {
			t.Errorf("Compare(%v, %v) != 0", v, v)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(String(a), String(b)) == -Compare(String(b), String(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestNameKeyInjective(t *testing.T) {
	names := []Name{
		PlainName("Psup"),
		SkolemName("Psup", String("VW")),
		SkolemName("Psup", Symbol("VW")),
		SkolemName("Psup", String("VW"), Int(1)),
		SkolemName("Pcar", String("VW")),
		SkolemName("Psup", Int(1)),
		SkolemName("Psup", Float(1)),
	}
	seen := map[string]Name{}
	for _, n := range names {
		if prev, ok := seen[n.Key()]; ok {
			t.Errorf("key collision between %v and %v: %q", prev, n, n.Key())
		}
		seen[n.Key()] = n
	}
}

func TestNameString(t *testing.T) {
	n := SkolemName("Psup", String("VW center"), Int(3))
	if got, want := n.String(), `Psup("VW center", 3)`; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if PlainName("b1").String() != "b1" {
		t.Errorf("plain name String wrong")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Fatal("new store not empty")
	}
	a := Sym("a")
	b := Sym("b")
	if replaced := s.Put(PlainName("x"), a); replaced {
		t.Error("first Put reported replaced")
	}
	if replaced := s.Put(PlainName("x"), b); !replaced {
		t.Error("second Put did not report replaced")
	}
	got, ok := s.Get(PlainName("x"))
	if !ok || got != b {
		t.Error("Get did not return replacement value")
	}
	if !s.Has(PlainName("x")) || s.Has(PlainName("y")) {
		t.Error("Has wrong")
	}
	s.Put(PlainName("y"), a)
	s.Put(PlainName("z"), a)
	s.Delete(PlainName("y"))
	if s.Has(PlainName("y")) {
		t.Error("Delete did not remove")
	}
	// Index map must stay consistent after delete.
	if got, ok := s.Get(PlainName("z")); !ok || got != a {
		t.Error("Get(z) broken after Delete(y)")
	}
	names := s.Names()
	if len(names) != 2 || names[0].Functor != "x" || names[1].Functor != "z" {
		t.Errorf("Names order wrong: %v", names)
	}
}

func TestStoreInsertionOrderAndSorted(t *testing.T) {
	s := NewStore()
	s.Put(PlainName("zz"), Sym("a"))
	s.Put(PlainName("aa"), Sym("b"))
	ents := s.Entries()
	if ents[0].Name.Functor != "zz" {
		t.Error("Entries should preserve insertion order")
	}
	sorted := s.SortedEntries()
	if sorted[0].Name.Functor != "aa" {
		t.Error("SortedEntries should sort by key")
	}
	// Sorting must not disturb the original.
	if s.Entries()[0].Name.Functor != "zz" {
		t.Error("SortedEntries mutated the store")
	}
}

func TestStoreClone(t *testing.T) {
	s := NewStore()
	s.Put(PlainName("x"), Sym("root", Str("leaf")))
	c := s.Clone()
	orig, _ := s.Get(PlainName("x"))
	copy, _ := c.Get(PlainName("x"))
	if !orig.Equal(copy) {
		t.Fatal("clone not equal")
	}
	copy.Children[0].Label = String("changed")
	if orig.Equal(copy) {
		t.Fatal("clone shares structure with original")
	}
}

func TestNodeConstruction(t *testing.T) {
	n := Sym("brochure",
		Sym("number", IntLeaf(1)),
		Sym("title", Str("Golf")),
	)
	if n.Size() != 5 {
		t.Errorf("Size = %d, want 5", n.Size())
	}
	if n.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", n.Depth())
	}
	if n.IsLeaf() {
		t.Error("root is not a leaf")
	}
	if !n.Children[0].Children[0].IsLeaf() {
		t.Error("number child should be leaf")
	}
}

func TestNodeEqualAndClone(t *testing.T) {
	a := Sym("car", Sym("name", Str("Golf")), Sym("year", IntLeaf(1995)))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Children[1].Children[0].Label = Int(1996)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	// Order matters.
	c := Sym("car", Sym("year", IntLeaf(1995)), Sym("name", Str("Golf")))
	if a.Equal(c) {
		t.Fatal("children order should be significant")
	}
}

func TestNodeKeyMatchesEqual(t *testing.T) {
	trees := []*Node{
		Sym("a"),
		Sym("a", Sym("b")),
		Sym("a", Sym("b"), Sym("c")),
		Sym("a", Sym("b", Sym("c"))),
		Str("a"),
		Sym("a", Str("b")),
		RefLeaf(PlainName("a")),
	}
	for i, x := range trees {
		for j, y := range trees {
			if (x.Key() == y.Key()) != x.Equal(y) {
				t.Errorf("Key/Equal disagree for trees %d, %d", i, j)
			}
		}
	}
}

func TestNodeKeyDistinguishesNesting(t *testing.T) {
	// a<b<c>> vs a<b,c> — same node multiset, different shape.
	x := Sym("a", Sym("b", Sym("c")))
	y := Sym("a", Sym("b"), Sym("c"))
	if x.Key() == y.Key() {
		t.Error("keys should differ for different nesting")
	}
}

func TestWalkPreorderAndPrune(t *testing.T) {
	n := Sym("r", Sym("a", Sym("a1")), Sym("b"))
	var seen []string
	n.Walk(func(m *Node) bool {
		seen = append(seen, m.Label.Display())
		return m.Label.Display() != "a" // prune below a
	})
	want := []string{"r", "a", "b"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("walk order = %v, want %v", seen, want)
	}
}

func TestRefs(t *testing.T) {
	n := Sym("set",
		RefLeaf(SkolemName("Psup", String("VW"))),
		Sym("mid", RefLeaf(PlainName("s2"))),
		RefLeaf(SkolemName("Psup", String("VW"))),
	)
	refs := n.Refs()
	if len(refs) != 3 {
		t.Fatalf("Refs len = %d, want 3", len(refs))
	}
	if refs[1].Functor != "s2" {
		t.Errorf("Refs order wrong: %v", refs)
	}
}

func TestStringRendering(t *testing.T) {
	n := Sym("class", Sym("supplier", Sym("name", Str("VW center"))))
	want := `class < supplier < name < "VW center" > > >`
	if n.String() != want {
		t.Errorf("String = %q, want %q", n.String(), want)
	}
	if got := Sym("x").String(); got != "x" {
		t.Errorf("leaf String = %q", got)
	}
}

func TestIndentRendering(t *testing.T) {
	n := Sym("a", Sym("b", Str("c")))
	got := n.Indent()
	want := "a\n  b\n    \"c\"\n"
	if got != want {
		t.Errorf("Indent = %q, want %q", got, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		`class < supplier < name < "VW center" >, city < "Paris" >, zip < 75005 > > >`,
		`x`,
		`brochure < number < 1 >, title < "Golf" >, model < 1995 > >`,
		`set < &Psup("VW center"), &Psup("VW2") >`,
		`m < row < 1.5, -2 >, flag < true >, other < false > >`,
	}
	for _, in := range inputs {
		n, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		again, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q: %v", in, n.String(), err)
		}
		if !n.Equal(again) {
			t.Errorf("round trip changed tree: %q → %q", in, again.String())
		}
	}
}

func TestParseArrowSugar(t *testing.T) {
	a, err := Parse(`class -> supplier -> name -> "VW"`)
	if err != nil {
		t.Fatal(err)
	}
	b := MustParse(`class < supplier < name < "VW" > > >`)
	if !a.Equal(b) {
		t.Errorf("arrow sugar mismatch: %s vs %s", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`a <`,
		`a < b`,
		`a < b, >`,
		`a > b`,
		`&`,
		`"unterminated`,
		`"ends on a backslash\`, // used to index past the input
		`a < b > trailing`,
		`a(1`,   // name syntax only valid after &
		`a ! b`, // a character no token starts with used to end the input
		`a < b > # c`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
	// ...which let a store drop everything after it without a word.
	if s, err := ParseStore("a: 1\n; b: 2\nc: 3"); err == nil {
		t.Errorf("ParseStore read %d of 3 entries past a stray character without an error", s.Len())
	}
}

func TestParseStore(t *testing.T) {
	src := `
		b1: brochure < number < 1 >, title < "Golf" > >
		s1: class < supplier >
		Psup("VW"): class < supplier < name < "VW" > > >
	`
	s, err := ParseStore(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if _, ok := s.Get(SkolemName("Psup", String("VW"))); !ok {
		t.Error("skolem-named entry not found")
	}
	// Round trip through FormatStore.
	s2, err := ParseStore(FormatStore(s))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range s.Entries() {
		other, ok := s2.Get(e.Name)
		if !ok || !other.Equal(e.Tree) {
			t.Errorf("entry %v lost in round trip", e.Name)
		}
	}
}

func TestParseNumbers(t *testing.T) {
	n := MustParse(`nums < -5, 3.25, 1e3, -2.5e-2 >`)
	want := []Value{Int(-5), Float(3.25), Float(1000), Float(-0.025)}
	for i, w := range want {
		if !n.Children[i].Label.Equal(w) {
			t.Errorf("child %d = %v, want %v", i, n.Children[i].Label, w)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	n := MustParse(`s < "line\nbreak \"quoted\"" >`)
	got := n.Children[0].Label.(String)
	if string(got) != "line\nbreak \"quoted\"" {
		t.Errorf("escape handling wrong: %q", string(got))
	}
}

// randomTree builds a pseudo-random tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	labels := []Value{
		Symbol("a"), Symbol("b"), Symbol("class"), String("x"),
		String("VW center"), Int(int64(r.Intn(100))), Float(r.Float64()),
		Bool(r.Intn(2) == 0),
	}
	n := New(labels[r.Intn(len(labels))])
	if depth > 0 {
		for i := 0; i < r.Intn(4); i++ {
			n.Add(randomTree(r, depth-1))
		}
	}
	return n
}

func TestPropertyParsePrintRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := randomTree(r, 4)
		out, err := Parse(n.String())
		if err != nil {
			t.Fatalf("iteration %d: parse(%q): %v", i, n.String(), err)
		}
		if !n.Equal(out) {
			t.Fatalf("iteration %d: round trip changed %q into %q", i, n.String(), out.String())
		}
	}
}

func TestPropertyCloneEqualAndIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		n := randomTree(r, 4)
		c := n.Clone()
		if !n.Equal(c) {
			t.Fatal("clone not equal")
		}
		if n.Key() != c.Key() {
			t.Fatal("clone key mismatch")
		}
	}
}

func TestPropertyCompareNodeTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var trees []*Node
	for i := 0; i < 30; i++ {
		trees = append(trees, randomTree(r, 3))
	}
	for _, a := range trees {
		if CompareNode(a, a) != 0 {
			t.Fatal("CompareNode(a,a) != 0")
		}
		for _, b := range trees {
			if CompareNode(a, b) != -CompareNode(b, a) {
				t.Fatalf("antisymmetry violated for %s / %s", a, b)
			}
			if (CompareNode(a, b) == 0) != a.Equal(b) {
				t.Fatalf("Compare==0 vs Equal disagree for %s / %s", a, b)
			}
		}
	}
}

func TestDotOutput(t *testing.T) {
	s := NewStore()
	s.Put(PlainName("b1"), Sym("brochure", Sym("title", Str("Golf"))))
	dot := Dot(s.Entries(), "demo")
	for _, frag := range []string{"digraph yat", `"brochure"`, `"title"`, `"\"Golf\""`, "b1:"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot output missing %q:\n%s", frag, dot)
		}
	}
}

func TestAtomString(t *testing.T) {
	if AtomString(String("Golf")) != "Golf" {
		t.Error("String atom should not be quoted")
	}
	if AtomString(Int(5)) != "5" {
		t.Error("Int atom display")
	}
}

func TestIsAtom(t *testing.T) {
	if IsAtom(Symbol("x")) || IsAtom(Ref{Name: PlainName("a")}) {
		t.Error("symbols/refs are not atoms")
	}
	for _, v := range []Value{String("s"), Int(1), Float(1), Bool(true)} {
		if !IsAtom(v) {
			t.Errorf("%v should be an atom", v)
		}
	}
}

func TestEqualValuesCrossKindNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Float(1), true},
		{Float(2.5), Float(2.5), true},
		{Int(1), Int(1), true},
		{Int(1), Float(1.5), false},
		{Int(1), String("1"), false},
		{Symbol("a"), Symbol("a"), true},
		{Bool(true), Int(1), false},
	}
	for _, c := range cases {
		if got := EqualValues(c.a, c.b); got != c.want {
			t.Errorf("EqualValues(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := EqualValues(c.b, c.a); got != c.want {
			t.Errorf("EqualValues(%v, %v) = %v (asymmetric)", c.b, c.a, got)
		}
	}
}

// appendCases covers every Value kind, the Float lexeme rule
// included, nested through Ref and TreeVal.
func appendCases() []Value {
	texts := []string{"", "Golf", `say "hi"`, "tab\tnl\n", "<&>", "\u2028", "\xff\xfe", "héllo ✓"}
	vals := []Value{
		Int(0), Int(-7), Int(1995), Int(math.MaxInt64), Int(math.MinInt64),
		Float(2), Float(1.5), Float(-0.25), Float(1e21), Float(1e-7), Float(100000), Float(123456789),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(math.Copysign(0, -1)),
		Bool(true), Bool(false),
		Ref{Name: PlainName("s1")},
		TreeVal{}, TreeVal{Root: Sym("leaf")},
	}
	for _, s := range texts {
		vals = append(vals, Symbol(s), String(s),
			Ref{Name: SkolemName("Psup", String(s), Int(3), Float(2))},
			TreeVal{Root: Sym("car", Sym(s, Str(s)), IntLeaf(7), FloatLeaf(3), nil,
				RefLeaf(SkolemName(s, Symbol(s), TreeVal{Root: Str(s)})))})
	}
	return vals
}

// TestAppendDisplayMatchesDisplay: the append form is the display
// form, byte for byte, appended after whatever dst already holds.
func TestAppendDisplayMatchesDisplay(t *testing.T) {
	for _, v := range appendCases() {
		if got, want := string(AppendDisplay([]byte("k="), v)), "k="+v.Display(); got != want {
			t.Errorf("AppendDisplay(%#v) = %q, want %q", v, got, want)
		}
		if tv, ok := v.(TreeVal); ok {
			if got, want := string(tv.Root.AppendKey([]byte("k="))), "k="+tv.Root.Key(); got != want {
				t.Errorf("Node.AppendKey = %q, want %q", got, want)
			}
		}
	}
	// The pre-append forms, spelled out: what Display has always meant.
	for _, c := range []struct {
		v    Value
		want string
	}{
		{Float(2), "2.0"}, {Float(1e21), "1e+21"}, {Float(math.Inf(-1)), "-Inf"}, {Float(math.NaN()), "NaN"},
		{String("a\"b\xff"), `"a\"b\xff"`}, {Ref{Name: SkolemName("P", String("x"), Int(1))}, `&P("x", 1)`},
		{TreeVal{Root: Sym("a", Str("b"), IntLeaf(1))}, `a < "b", 1 >`}, {TreeVal{}, "<nil>"},
	} {
		if got := c.v.Display(); got != c.want {
			t.Errorf("Display(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestAppendStringMatchesString: likewise for names, in both the
// concrete (String) and canonical (Key) forms.
func TestAppendStringMatchesString(t *testing.T) {
	vals := appendCases()
	names := []Name{PlainName("b1"), PlainName(""), SkolemName("Pall", vals...)}
	for _, v := range vals {
		names = append(names, SkolemName("Psup", v), SkolemName("Psup", v, Int(1)))
	}
	for _, n := range names {
		if got, want := string(n.AppendString([]byte("&"))), "&"+n.String(); got != want {
			t.Errorf("AppendString = %q, want %q", got, want)
		}
		if got, want := string(n.AppendKey([]byte("&"))), "&"+n.Key(); got != want {
			t.Errorf("AppendKey = %q, want %q", got, want)
		}
	}
	if got, want := SkolemName("Psup", String("VW"), Float(2)).Key(), `Psup(string:"VW",float:2.0)`; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

// TestParseValueAndName: ParseValue and ParseName invert Display and
// String over every value kind — a leaf tree parses as its bare label,
// whose display form is the same — and refuse trailing input.
func TestParseValueAndName(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Value
	}{
		{`"Supplier 007"`, String("Supplier 007")}, {"75011", Int(75011)}, {"-0.5", Float(-0.5)},
		{"Paris", Symbol("Paris")}, {"true", Bool(true)}, {"&s1", Ref{Name: PlainName("s1")}},
		{`&Psup("s", 1)`, Ref{Name: SkolemName("Psup", String("s"), Int(1))}},
		{`a < "b", 1 >`, TreeVal{Root: Sym("a", Str("b"), IntLeaf(1))}},
		{"a -> b -> 1", TreeVal{Root: Sym("a", Sym("b", IntLeaf(1)))}},
	} {
		got, err := ParseValue(c.in)
		if err != nil || got.Kind() != c.want.Kind() || got.Display() != c.want.Display() {
			t.Errorf("ParseValue(%q) = %#v, %v; want %#v", c.in, got, err, c.want)
		}
		name := SkolemName("Pview1", c.want, Int(2))
		if n, err := ParseName(name.String()); err != nil || n.Key() != name.Key() {
			t.Errorf("ParseName(%q) = %q, %v; want %q", name.String(), n.Key(), err, name.Key())
		}
	}
	for _, in := range []string{"", "1 2", "a <", "a < >", "a ->", `"open`, "P(", "P(1", "P(1) x", "&", "b1!x", "P(1)!"} {
		if v, err := ParseValue(in); err == nil {
			t.Errorf("ParseValue(%q) = %#v, want an error", in, v)
		}
		if n, err := ParseName(in); err == nil {
			t.Errorf("ParseName(%q) = %v, want an error", in, n)
		}
	}
}

// TestParseScalarAllocs: a scalar costs its boxed value and nothing
// else — no node is built to be thrown away — and a one-argument
// Skolem name its argument slice and that one value. A federation
// parent parses four of these per answer it relays.
func TestParseScalarAllocs(t *testing.T) {
	for _, in := range []string{`"Supplier 007"`, "75011", "Paris", "&s1"} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := ParseValue(in); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("ParseValue(%s): %v allocations, want <= 1", in, n)
		}
	}
	for in, max := range map[string]float64{"Pview1": 0, `Pview1("Supplier 007")`: 2} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := ParseName(in); err != nil {
				t.Fatal(err)
			}
		}); n > max {
			t.Errorf("ParseName(%s): %v allocations, want <= %v", in, n, max)
		}
	}
}

// TestStoreLookupAllocs pins Store lookups at no allocation: the key of
// a Skolem name is built in a stack buffer, never as a string.
func TestStoreLookupAllocs(t *testing.T) {
	s := NewStore()
	name := SkolemName("Psup", String("Supplier 007"), Int(75011))
	sup := Sym("supplier")
	s.Put(name, sup)
	for _, n := range []Name{name, SkolemName("Psup", String("absent"))} {
		if got := testing.AllocsPerRun(200, func() {
			s.Get(n)
			s.Has(n)
		}); got != 0 {
			t.Errorf("Get/Has(%s): %v allocations, want 0", n, got)
		}
	}
	if got := testing.AllocsPerRun(200, func() { s.Put(name, sup) }); got != 0 {
		t.Errorf("replacing Put: %v allocations, want 0", got)
	}
}

// TestStoreGrow checks that a grown store keeps what it held, in order,
// and takes the trees it made room for without growing its entry list,
// nor its index where Grow made that anew: one allocation a Put, for
// the key, and one more at most, where a small map makes its table on
// the first Put.
func TestStoreGrow(t *testing.T) {
	for _, tc := range []struct{ held, room int }{{0, 8}, {3, 8}, {8, 3}, {5, 0}} {
		names := make([]Name, tc.held+tc.room)
		for i := range names {
			names[i] = SkolemName("F", Int(int64(i)))
		}
		leaf := Sym("leaf")
		s := NewStore()
		for _, n := range names[:tc.held] {
			s.Put(n, leaf)
		}
		s.Grow(tc.room)
		room := cap(s.Entries())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, n := range names[tc.held:] {
			s.Put(n, leaf)
		}
		runtime.ReadMemStats(&after)
		if cap(s.Entries()) != room {
			t.Errorf("held %d, room %d: the entry list grew past the room made", tc.held, tc.room)
		}
		if got := after.Mallocs - before.Mallocs; tc.room >= tc.held && got > uint64(tc.room+1) {
			t.Errorf("held %d, room %d: %d Puts allocate %d times, want <= %d", tc.held, tc.room, tc.room, got, tc.room+1)
		}
		for k, e := range s.Entries() {
			if j, ok := s.Index(names[k]); !ok || j != k || !e.Name.Equal(names[k]) {
				t.Errorf("held %d, room %d: entry %d is %s at %d, %v", tc.held, tc.room, k, e.Name, j, ok)
			}
		}
	}
}

// checkMatchesParse holds CheckName and CheckValue to the parsers they
// run: each refuses exactly what its parser refuses, with the same
// error.
func checkMatchesParse(t *testing.T, in string) {
	t.Helper()
	_, perr := ParseName(in)
	if cerr := CheckName(in); fmt.Sprint(cerr) != fmt.Sprint(perr) {
		t.Errorf("CheckName(%q) = %v, ParseName says %v", in, cerr, perr)
	}
	_, perr = ParseValue(in)
	if cerr := CheckValue(in); fmt.Sprint(cerr) != fmt.Sprint(perr) {
		t.Errorf("CheckValue(%q) = %v, ParseValue says %v", in, cerr, perr)
	}
}

// checkSeeds are display forms of every kind, and near misses.
var checkSeeds = []string{
	`"Supplier 007"`, "75011", "-0.5", "1e3", "Paris", "true", "&s1", `&Psup("s", 1)`,
	`a < "b", 1 >`, "a -> b -> 1", `Pview1("Supplier 001")`, `Psup("a\"b", 3, 2.5)`,
	"Pview1(class < name < \"x\" >, &b1 >)", " \t\nb1\r\v\f", "é_1", "x ", " ",
	"", "1 2", "a <", "a < >", "a ->", `"open`, `"\q"`, "\"a\nb\"", `"\xff"`, "\"\xff\"",
	"P(", "P(1", "P(1) x", "&", "b1!x", "P(1)!", "99999999999999999999", "1e999", "--1", "+",
}

// TestCheckMatchesParse: CheckName and CheckValue refuse what ParseName
// and ParseValue refuse, with their errors, and build nothing for what
// they accept.
func TestCheckMatchesParse(t *testing.T) {
	for _, in := range checkSeeds {
		checkMatchesParse(t, in)
	}
	for in, check := range map[string]func(string) error{
		`Pview1("Supplier 001", 2.5, &s1)`: CheckName, `"Supplier \"007\""`: CheckValue, "75011": CheckValue,
		`view < tag < "v1" >, ref < &Psup("s") > >`: CheckValue,
	} {
		if n := testing.AllocsPerRun(200, func() {
			if err := check(in); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("checking %s: %v allocations, want 0", in, n)
		}
	}
}

// FuzzCheckMatchesParse: on any text CheckName ⇔ ParseName and
// CheckValue ⇔ ParseValue, error for error.
func FuzzCheckMatchesParse(f *testing.F) {
	for _, in := range checkSeeds {
		f.Add(in)
	}
	f.Fuzz(checkMatchesParse)
}
