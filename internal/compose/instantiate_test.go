package compose

import (
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/typing"
	"yat/internal/yatl"
)

func TestInstantiateWebSup(t *testing.T) {
	// Instantiating on Psup derives the supplier page rule: three
	// static list items, all atoms residualized through
	// data_to_string.
	derived, err := Instantiate(webProgram(t), pattern.PsupPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := derived.Rule("Web1_Psup")
	if !ok {
		t.Fatal("Web1_Psup missing")
	}
	src := rule.String()
	for _, frag := range []string{
		"title -> supplier", `"name: "`, `"city: "`, `"zip: "`,
		"data_to_string(S1)", "data_to_string(S2)", "data_to_string(S3)",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("Web1_Psup missing %q:\n%s", frag, src)
		}
	}
	// A single body pattern: suppliers reference nothing.
	if len(rule.Body) != 1 {
		t.Errorf("body patterns = %d, want 1", len(rule.Body))
	}
}

func TestInstantiatePredicatesResidualized(t *testing.T) {
	// A general rule with a variable predicate: the derived rule
	// keeps it over the pattern's variables.
	src := `
program p
rule R {
  head F(X) = out < -> V, -> W >
  from X = in < -> a -> V, -> b -> W >
  where V > 10
  where W == "keep"
}
`
	prog := yatl.MustParse(src)
	input := pattern.NewPattern("Pin", yatl.MustParsePattern(
		`in < -> a -> N : int, -> b -> S : string >`))
	derived, err := Instantiate(prog, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	rule := derived.Rules[0]
	out := rule.String()
	if !strings.Contains(out, "N > 10") || !strings.Contains(out, `S == "keep"`) {
		t.Errorf("predicates not residualized:\n%s", out)
	}
}

func TestInstantiateConstantPredicateFiltersStatically(t *testing.T) {
	// A predicate decidable at instantiation time eliminates the rule
	// application entirely.
	src := `
program p
rule R {
  head F(X) = out -> V
  from X = in < -> year -> Y, -> v -> V >
  where Y > 1975
}
`
	prog := yatl.MustParse(src)
	oldPattern := pattern.NewPattern("Pold", yatl.MustParsePattern(
		`in < -> year -> 1960, -> v -> V >`))
	if _, err := Instantiate(prog, oldPattern, nil); err == nil {
		t.Error("statically false predicate should leave no derivable rules")
	}
	newPattern := pattern.NewPattern("Pnew", yatl.MustParsePattern(
		`in < -> year -> 1990, -> v -> V >`))
	derived, err := Instantiate(prog, newPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The satisfied predicate disappears from the derived rule.
	if strings.Contains(derived.Rules[0].String(), "1975") {
		t.Errorf("statically true predicate should be dropped:\n%s", derived.Rules[0])
	}
}

func TestInstantiateTypeFilterStatically(t *testing.T) {
	// An external function over a constant of the wrong kind drops
	// the alternative through the §3.1 type filter at derivation
	// time.
	src := `
program p
rule R {
  head F(X) = out -> C
  from X = in -> A
  let C = city(A)
}
`
	prog := yatl.MustParse(src)
	intPattern := pattern.NewPattern("Pint", yatl.MustParsePattern(`in -> 42`))
	if _, err := Instantiate(prog, intPattern, nil); err == nil {
		t.Error("type-filtered alternative should leave nothing to derive")
	}
	strPattern := pattern.NewPattern("Pstr", yatl.MustParsePattern(`in -> "Bd Lenoir, 75005 Paris"`))
	derived, err := Instantiate(prog, strPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fully static: the city is computed at instantiation time.
	if !strings.Contains(derived.Rules[0].String(), `"Paris"`) {
		t.Errorf("constant function call should evaluate statically:\n%s", derived.Rules[0])
	}
}

func TestInstantiateUnknownRefStaysDynamic(t *testing.T) {
	// A reference to a pattern the model does not know: the deref
	// stays dynamic over a join variable.
	src := `
program p
rule R {
  head F(X) = out -> ^G(V)
  from X = in -> V
}
rule G1 {
  head G(X) = converted -> N
  from X = thing -> N
}
`
	prog := yatl.MustParse(src)
	input := pattern.NewPattern("Pin", yatl.MustParsePattern(`in -> &Mystery`))
	derived, err := Instantiate(prog, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := derived.Rule("R_Pin")
	if !ok {
		t.Fatal("R_Pin missing")
	}
	src2 := rule.String()
	if !strings.Contains(src2, "^G(Mystery)") {
		t.Errorf("unknown ref target should keep a dynamic deref:\n%s", src2)
	}
	// The body's &Mystery leaf was rewritten into the join variable.
	if !strings.Contains(rule.Body[0].Tree.String(), "in -> Mystery") {
		t.Errorf("body leaf not rewritten:\n%s", rule.Body[0].Tree)
	}
}

func TestInstantiateUnionPattern(t *testing.T) {
	src := `
program p
rule R {
  head F(X) = out -> V
  from X = in -> V
}
`
	prog := yatl.MustParse(src)
	union := pattern.NewPattern("PU",
		yatl.MustParsePattern(`in -> "a"`),
		yatl.MustParsePattern(`in -> "b"`))
	derived, err := Instantiate(prog, union, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(derived.Rules) != 2 {
		t.Fatalf("rules = %d, want one per union branch", len(derived.Rules))
	}
	names := []string{derived.Rules[0].Name, derived.Rules[1].Name}
	if names[0] == names[1] {
		t.Errorf("branch rules share a name: %v", names)
	}
}

func TestInstantiateSkipsMultiBodyRules(t *testing.T) {
	// Multi-pattern rules are not specialized (the join target is not
	// determined by one input pattern); single-pattern rules of the
	// same program still derive.
	src := `
program p
rule Multi {
  head F(K) = out -> K
  from X = a -> K
  from Y = b -> K
}
rule Single {
  head G(X) = got -> V
  from X = a -> V
}
`
	prog := yatl.MustParse(src)
	input := pattern.NewPattern("Pa", yatl.MustParsePattern(`a -> V : int`))
	derived, err := Instantiate(prog, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := derived.Rule("Single_Pa"); !ok {
		t.Error("single-body rule not derived")
	}
	if _, ok := derived.Rule("Multi_Pa"); ok {
		t.Error("multi-body rule should not be derived")
	}
}

func TestComposedRulePreservesProducerPredicates(t *testing.T) {
	// Rule Sup carries `Year > 1975`; the composed supplier-page rule
	// must keep it (pages only for post-1975 suppliers).
	first := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	second := webProgram(t)
	composed, err := Compose(first, second)
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := composed.Rule("Sup_Web1")
	if !ok {
		t.Fatal("Sup_Web1 missing")
	}
	found := false
	for _, p := range rule.Preds {
		if p.String() == "Year > 1975" {
			found = true
		}
	}
	if !found {
		t.Errorf("producer predicate lost:\n%s", rule.String())
	}
	// And at runtime: an old brochure yields no supplier page.
	store := tree.NewStore()
	store.Put(tree.PlainName("old"), tree.MustParse(
		`brochure < number < 1 >, title < "Beetle" >, model < 1960 >, desc < "old" >,
		            spplrs < supplier < name < "S" >, address < "Rue A, 75001 Paris" > > > >`))
	res, err := engine.Run(composed, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Outputs.Entries() {
		if e.Name.Functor != "HtmlPage" {
			continue
		}
		// Supplier pages carry title < supplier >; the car page (with
		// its anchors) is legitimately produced — Rule Car has no
		// predicate.
		if strings.Contains(e.Tree.String(), "title < supplier >") {
			t.Errorf("pre-1975 supplier got a page: %s", e.Tree)
		}
	}
}

func TestComposeRejectsDerefProducerHeads(t *testing.T) {
	// The pair passes the §4.3 check: F's inlined G value instantiates
	// the second program's Pg domain.
	first := yatl.MustParse(`
program p
rule R {
  head F(N) = out -> ^G(N)
  from X = in -> N : string
}
rule G1 {
  head G(N) = g -> N
  from X = in -> N : string
}
`)
	second := yatl.MustParse(`
program q
model M {
  Pg = g -> V : string
}
rule W {
  head H(X) = h -> P
  from X = out -> P : Pg
}
rule W2 {
  head H(X) = h -> V
  from X = g -> V : string
}
`)
	if err := typing.Compatible(first, second, nil); err != nil {
		t.Fatalf("the pair should be composable: %v", err)
	}
	_, err := Compose(first, second)
	if err == nil || !strings.Contains(err.Error(), "R: producer head dereferences") {
		t.Errorf("deref producer head should be reported: %v", err)
	}
}

func TestCombinePreservesOrders(t *testing.T) {
	a := yatl.MustParse("program a\norder X before Y\n" + yatl.Rule1Source)
	b := yatl.MustParse("program b\n" + yatl.Rule2Source)
	c := Combine("ab", a, b)
	if len(c.Orders) != 1 || c.Orders[0].Before != "X" {
		t.Errorf("orders = %v", c.Orders)
	}
	if len(c.Models) != 0 {
		t.Errorf("models = %d", len(c.Models))
	}
	// Models merge without duplication.
	w := yatl.MustParse(yatl.WebProgramSource)
	c2 := Combine("ww", w, w.Clone())
	if len(c2.Models) != 1 {
		t.Errorf("duplicate model declarations: %d", len(c2.Models))
	}
}

func TestDerivedProgramsReparse(t *testing.T) {
	// Every derivation path produces programs that survive the
	// print/parse round trip.
	derived, err := Instantiate(webProgram(t), pattern.PsupPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := yatl.Parse(derived.String()); err != nil {
		t.Errorf("instantiated program does not reparse: %v", err)
	}
	composed, err := Compose(yatl.MustParse(yatl.AnnotatedSGMLToODMGSource), webProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := yatl.Parse(composed.String()); err != nil {
		t.Errorf("composed program does not reparse: %v", err)
	}
}

func TestInstantiateOnCyclicSchema(t *testing.T) {
	// A cyclic schema (suppliers sell cars, cars have suppliers):
	// instantiation terminates and derives rules for both patterns.
	str := `class -> supplier < -> name -> S1 : string, -> city -> S2 : string,
	                             -> zip -> S3 : string,
	                             -> sells -> set -*> &PcarX >`
	carStr := `class -> car < -> name -> T1 : string, -> desc -> T2 : string,
	                           -> suppliers -> set -*> &PsupX >`
	psup := pattern.NewPattern("PsupX", yatl.MustParsePattern(str))
	pcar := pattern.NewPattern("PcarX", yatl.MustParsePattern(carStr))
	env := pattern.NewModel(psup, pcar).Merge(pattern.ODMGModel())

	derived, err := Instantiate(webProgram(t), psup, env)
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := derived.Rule("Web1_PsupX")
	if !ok {
		t.Fatal("Web1_PsupX missing")
	}
	src := rule.String()
	// The sells set becomes an iterating anchor list over car pages.
	for _, frag := range []string{`"sells: "`, "&HtmlPage(PcarX)", "cont -> car"} {
		if !strings.Contains(src, frag) {
			t.Errorf("cyclic-schema derivation missing %q:\n%s", frag, src)
		}
	}
	// Both directions derive without diverging.
	if _, err := Instantiate(webProgram(t), pcar, env); err != nil {
		t.Fatal(err)
	}
}

func TestDerivedRulesDoNotAliasBodies(t *testing.T) {
	derived, err := Instantiate(webProgram(t), pattern.PcarPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(derived.Rules) < 2 {
		t.Skip("need at least two derived rules")
	}
	a, b := derived.Rules[0], derived.Rules[1]
	if a.Body[0].Tree == b.Body[0].Tree {
		t.Fatal("derived rules share a body tree pointer")
	}
	before := b.Body[0].Tree.String()
	a.Body[0].Tree.Label = pattern.Var{Name: "Mutated"}
	if b.Body[0].Tree.String() != before {
		t.Error("mutating one derived rule changed another")
	}
}
