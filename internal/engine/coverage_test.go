package engine

import (
	"strings"
	"testing"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

func TestBindingString(t *testing.T) {
	b := Binding{"Z": tree.Int(1), "A": tree.String("x")}
	if got := b.String(); got != `[A="x"; Z=1]` {
		t.Errorf("Binding.String = %q", got)
	}
}

func TestDerefValLabel(t *testing.T) {
	d := &derefVal{Name: tree.SkolemName("F", tree.Int(1))}
	if d.Kind() != tree.KindRef {
		t.Error("derefVal kind")
	}
	if d.Display() != "^F(1)" {
		t.Errorf("derefVal display = %q", d.Display())
	}
	if !d.Equal(&derefVal{Name: tree.SkolemName("F", tree.Int(1))}) {
		t.Error("derefVal equality")
	}
	if d.Equal(tree.Symbol("F")) {
		t.Error("derefVal equals symbol")
	}
}

func TestErrUnconvertedMessage(t *testing.T) {
	err := &ErrUnconverted{IDs: []tree.Value{tree.Ref{Name: tree.PlainName("x")}, tree.String("y")}}
	msg := err.Error()
	if !strings.Contains(msg, "&x") || !strings.Contains(msg, `"y"`) {
		t.Errorf("message = %q", msg)
	}
}

func TestBuildHierarchyExported(t *testing.T) {
	prog := yatl.MustParse(yatl.WebProgramSource)
	model, _ := prog.Model("ODMG")
	h := BuildHierarchy(prog, model)
	if len(h.FunctorOrder) != 2 {
		t.Errorf("functors = %v", h.FunctorOrder)
	}
	if len(h.Conflicts) != 4 {
		t.Errorf("conflicts = %v", h.Conflicts)
	}
	if len(h.Exceptions) != 0 {
		t.Errorf("exceptions = %d", len(h.Exceptions))
	}
	withExc := yatl.MustParse(yatl.SGMLToODMGSource + yatl.ExceptionRuleSource)
	if h2 := BuildHierarchy(withExc, nil); len(h2.Exceptions) != 1 {
		t.Errorf("exception rule not surfaced")
	}
}

func TestMatchBodyPatternDomainCheck(t *testing.T) {
	// A body pattern with a : Domain annotation filters inputs that
	// do not conform to the named pattern.
	src := `
program p
model M {
  Pbr = brochure < -> number -> Num, -> title -> T >
}
rule R {
  head Out(X) = got -> T
  from X : Pbr = brochure < -> number -> Num, -> title -> T >
}
`
	prog := yatl.MustParse(src)
	inputs := storeOf(t, `
	  good: brochure < number < 1 >, title < "Golf" > >
	  bad:  brochure < number < 1 >, title < "Golf" >, extra < 1 > >
	`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs.Len() != 1 {
		t.Fatalf("outputs = %d, want 1 (domain check should reject `bad`):\n%s",
			res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
}

func TestConformsRefDuringMatch(t *testing.T) {
	// &P in a body checks the referenced tree against the model
	// pattern when one is declared.
	store := pattern.GolfStore()
	m := &Matcher{Store: store, Model: pattern.CarSchemaModel()}
	c1, _ := store.Get(tree.PlainName("c1"))
	if !m.Matches(pat(t, `class -> car < -> name -> N, -> desc -> D,
		-> suppliers -> set -*> &Psup >`), c1) {
		t.Error("conforming refs rejected")
	}
	// Break a referenced supplier: zip becomes a deep tree.
	broken := store.Clone()
	s1, _ := broken.Get(tree.PlainName("s1"))
	s1.Children[0].Children[2].Children[0] = tree.Sym("weird", tree.Sym("deep"))
	mb := &Matcher{Store: broken, Model: pattern.CarSchemaModel()}
	bc1, _ := broken.Get(tree.PlainName("c1"))
	if mb.Matches(pat(t, `class -> car < -> name -> N, -> desc -> D,
		-> suppliers -> set -*> &Psup >`), bc1) {
		t.Error("non-conforming reference target accepted")
	}
	// A dangling reference fails the check too.
	broken2 := store.Clone()
	broken2.Delete(tree.PlainName("s2"))
	mb2 := &Matcher{Store: broken2, Model: pattern.CarSchemaModel()}
	bc2, _ := broken2.Get(tree.PlainName("c1"))
	if mb2.Matches(pat(t, `class -> car < -> name -> N, -> desc -> D,
		-> suppliers -> set -*> &Psup >`), bc2) {
		t.Error("dangling reference accepted under typed matching")
	}
}

func TestEvalPredCallForms(t *testing.T) {
	// Boolean predicate call with an unbound variable drops the
	// binding; with a failing function it warns and drops.
	src := `
program p
rule R {
  head Out(X) = ok
  from X = in < -> a -> A, -> c -> C >
  where sameaddress(A, C, A)
}
`
	prog := yatl.MustParse(src)
	inputs := storeOf(t, `
	  hit:  in < a < "Bd Lenoir, 75005 Paris" >, c < "Paris" > >
	  miss: in < a < "Bd Lenoir, 75005 Paris" >, c < "Lyon" > >
	  typo: in < a < 42 >, c < "Paris" > >
	`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs.Len() != 1 {
		t.Fatalf("outputs = %d, want 1:\n%s", res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
	if _, ok := res.Outputs.Get(tree.SkolemName("Out", tree.Ref{Name: tree.PlainName("hit")})); !ok {
		t.Error("matching address should pass the call predicate")
	}
}

func TestComparisonOperatorsAtRuntime(t *testing.T) {
	src := `
program p
rule R {
  head Out(X) = kept -> V
  from X = in -> V
  where V >= 10
  where V <= 20
  where V != 15
  where V < 100
  where V == V
}
`
	prog := yatl.MustParse(src)
	inputs := storeOf(t, `
	  a: in < 12 >
	  b: in < 15 >
	  c: in < 25 >
	  d: in < 5 >
	`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs.Len() != 1 {
		t.Fatalf("outputs = %d, want 1 (only 12 passes all filters)", res.Outputs.Len())
	}
}

func TestThreeLevelHierarchyChain(t *testing.T) {
	// specific ⊑ mid ⊑ general: the most specific match blocks both
	// ancestors.
	src := `
program p
rule General {
  head F(X) = general
  from X = Data
}
rule Mid {
  head F(X) = mid
  from X = node -*> Y
}
rule Specific {
  head F(X) = specific
  from X = node < -> special -> V >
}
`
	prog := yatl.MustParse(src)
	inputs := storeOf(t, `
	  s: node < special < 1 > >
	  m: node < other < 1 > >
	  g: leaf
	`)
	res, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"s": "specific", "m": "mid", "g": "general"}
	for input, label := range want {
		out, ok := res.Outputs.Get(tree.SkolemName("F", tree.Ref{Name: tree.PlainName(input)}))
		if !ok {
			t.Fatalf("F(&%s) missing:\n%s", input, tree.FormatStore(res.Outputs))
		}
		if !out.Label.Equal(tree.Symbol(label)) {
			t.Errorf("F(&%s) = %s, want %s", input, out, label)
		}
	}
}

func TestLessByCriteriaMissingValues(t *testing.T) {
	var tab values
	tab.reset()
	a := frame{tab.add(tree.Int(1))}
	b := frame{0}
	if !lessByCriteria(&tab, b, a, []int{0}) {
		t.Error("missing value should sort first")
	}
	if lessByCriteria(&tab, a, b, []int{0}) {
		t.Error("present value should sort after missing")
	}
	if lessByCriteria(&tab, a, a, []int{0}) {
		t.Error("equal bindings are not less")
	}
	if lessByCriteria(&tab, b, b, []int{0}) {
		t.Error("both missing are not less")
	}
}

func TestCallBoolNonBooleanResult(t *testing.T) {
	r := NewRegistry()
	if _, _, err := r.CallBool("city", []tree.Value{tree.String("Rue A, 75001 Paris")}); err == nil {
		t.Error("non-boolean predicate result should error")
	}
}

func TestRuntimeOutputChecker(t *testing.T) {
	// With CheckOutputs set, outputs are validated against the
	// declared model at run time (§5.1's on-demand type checker).
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := storeOf(t, `
	  b1: brochure < number < 1 >, title < "Golf" >, model < 1995 >, desc < "d" >,
	                 spplrs < supplier < name < "VW" >, address < "Rue A, 75001 Paris" > > > >
	`)
	// Against the ODMG model every output conforms: no warnings.
	res, err := Run(prog, inputs, WithCheckOutputs(pattern.ODMGModel()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Warnings {
		if strings.Contains(w, "conforms to no pattern") {
			t.Errorf("unexpected conformance warning: %s", w)
		}
	}
	// Against the Car Schema, the int zip makes Psup outputs
	// non-conforming (the paper's S3 : string): warnings appear.
	res, err = Run(prog, inputs, WithCheckOutputs(pattern.CarSchemaModel()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "conforms to no pattern") && strings.Contains(w, "Psup") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected conformance warning for int zip, got %v", res.Warnings)
	}
}
