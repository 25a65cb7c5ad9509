package compose

import (
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// carSchemaEnv merges the Car Schema patterns with the ODMG model —
// the environment in which the WebCar derivation takes place.
func carSchemaEnv() *pattern.Model {
	return pattern.CarSchemaModel().Merge(pattern.ODMGModel())
}

func webProgram(t *testing.T) *yatl.Program {
	t.Helper()
	return yatl.MustParse(yatl.WebProgramSource)
}

// webGolfStore is the Figure 2 ground data (string zips, matching the
// Car Schema's S3 : string).
func webGolfStore() *tree.Store {
	s := tree.NewStore()
	s.Put(tree.PlainName("c1"), tree.MustParse(
		`class < car < name < "Golf" >,
		                desc < "A classic compact car" >,
		                suppliers < set < &s1, &s2 > > > >`))
	s.Put(tree.PlainName("s1"), tree.MustParse(
		`class < supplier < name < "VW center" >, city < "Paris" >, zip < "75005" > > >`))
	s.Put(tree.PlainName("s2"), tree.MustParse(
		`class < supplier < name < "VW2" >, city < "Versailles" >, zip < "78000" > > >`))
	return s
}

// --- Experiment E9: deriving rule WebCar (§4.1) --------------------------

func TestInstantiateWebCar(t *testing.T) {
	derived, err := Instantiate(webProgram(t), pattern.PcarPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := derived.Rule("Web1_Pcar")
	if !ok {
		var names []string
		for _, r := range derived.Rules {
			names = append(names, r.Name)
		}
		t.Fatalf("Web1_Pcar missing; derived rules: %v", names)
	}
	src := rule.String()
	// The paper's WebCar shape: static attribute labels, title and h1
	// on the class name, the supplier list kept as an iterating edge
	// with an anchor, and the data_to_string calls residualized.
	for _, frag := range []string{
		`"name: "`, `"desc: "`, `"suppliers: "`,
		"title -> car", "h1 -> car",
		"-*> li -> a <", "&HtmlPage(Psup)", "cont -> supplier",
		"data_to_string(S1)", "data_to_string(S2)",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("WebCar missing %q:\n%s", frag, src)
		}
	}
	// The head Skolem is parameterized by the input pattern name.
	if rule.Head.Functor != "HtmlPage" || len(rule.Head.Args) != 1 ||
		rule.Head.Args[0].Var != "Pcar" {
		t.Errorf("head = %s(%v)", rule.Head.Functor, rule.Head.Args)
	}
	// The residual body: the Pcar pattern (with the &Psup leaf
	// rewritten into the join variable) plus the referenced supplier
	// pattern — the paper's "incomplete Psup pattern".
	if len(rule.Body) != 2 {
		t.Fatalf("body patterns = %d, want 2:\n%s", len(rule.Body), src)
	}
	if rule.Body[0].Var != "Pcar" || rule.Body[1].Var != "Psup" {
		t.Errorf("body vars = %s, %s", rule.Body[0].Var, rule.Body[1].Var)
	}
	if !strings.Contains(rule.Body[1].Tree.String(), "supplier") {
		t.Errorf("residual body should describe supplier objects: %s", rule.Body[1].Tree)
	}
	// The derived program must still be parseable after printing.
	if _, err := yatl.Parse(derived.String()); err != nil {
		t.Errorf("derived program does not reparse: %v\n%s", err, derived.String())
	}
}

func TestInstantiatedProgramEquivalence(t *testing.T) {
	// "The resulting new program is equivalent to the previous one,
	// but more specific": instantiating on both Pcar and Psup and
	// combining must reproduce the general program's pages exactly.
	web := webProgram(t)
	env := carSchemaEnv()
	dCar, err := Instantiate(web, pattern.PcarPattern(), env)
	if err != nil {
		t.Fatal(err)
	}
	dSup, err := Instantiate(web, pattern.PsupPattern(), env)
	if err != nil {
		t.Fatal(err)
	}
	combined := Combine("webSpecific", dCar, dSup)

	general, err := engine.Run(web, webGolfStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	specific, err := engine.Run(combined, webGolfStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []string{"c1", "s1", "s2"} {
		oid := tree.SkolemName("HtmlPage", tree.Ref{Name: tree.PlainName(obj)})
		g, ok1 := general.Outputs.Get(oid)
		s, ok2 := specific.Outputs.Get(oid)
		if !ok1 || !ok2 {
			t.Fatalf("page %s missing (general %v, specific %v)\nspecific outputs:\n%s",
				oid, ok1, ok2, tree.FormatStore(specific.Outputs))
		}
		if !g.Equal(s) {
			t.Errorf("page %s differs:\n general: %s\nspecific: %s", oid, g, s)
		}
	}
}

func TestCustomizeNewWebCar(t *testing.T) {
	// §4.1: after instantiation the programmer customizes the derived
	// rule — here removing the suppliers item, as in rule newWebCar.
	derived, err := Instantiate(webProgram(t), pattern.PcarPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := derived.Rule("Web1_Pcar")
	// Drop the third list item (suppliers) and the residual supplier
	// body pattern.
	body := rule.Head.Tree.Edges[1].To // html -> body
	ul := body.Edges[1].To             // body -> ul
	if len(ul.Edges) != 3 {
		t.Fatalf("ul should have 3 items, got %d: %s", len(ul.Edges), rule.Head.Tree)
	}
	ul.Edges = ul.Edges[:2]
	rule.Body = rule.Body[:1]

	res, err := engine.Run(derived, webGolfStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	oid := tree.SkolemName("HtmlPage", tree.Ref{Name: tree.PlainName("c1")})
	page, ok := res.Outputs.Get(oid)
	if !ok {
		t.Fatalf("customized page missing:\n%s", tree.FormatStore(res.Outputs))
	}
	s := page.String()
	if strings.Contains(s, "suppliers") {
		t.Errorf("customized page should not show suppliers: %s", s)
	}
	for _, frag := range []string{`"name: "`, `"Golf"`, `"desc: "`} {
		if !strings.Contains(s, frag) {
			t.Errorf("customized page missing %q: %s", frag, s)
		}
	}
}

func TestInstantiateRequiresMatchingRule(t *testing.T) {
	weird := pattern.NewPattern("Weird", pattern.NewSym("nothing", pattern.One(pattern.NewSym("matches"))))
	// Web2's catch-all Data matches anything, so instantiation
	// succeeds even here — but on a program without a catch-all it
	// must fail.
	noCatchAll := yatl.MustParse(`
program p
rule Only {
  head F(X) = out -> V
  from X = specific -> V
}
`)
	if _, err := Instantiate(noCatchAll, weird, nil); err == nil {
		t.Error("instantiation with no matching rule should fail")
	}
}

func TestCombine(t *testing.T) {
	a := yatl.MustParse("program a\n" + yatl.Rule1Source)
	b := yatl.MustParse("program b\n" + yatl.Rule2Source + yatl.Rule1Source)
	c := Combine("ab", a, b)
	if len(c.Rules) != 3 {
		t.Fatalf("combined rules = %d, want 3", len(c.Rules))
	}
	names := map[string]bool{}
	for _, r := range c.Rules {
		if names[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		names[r.Name] = true
	}
	// The combined program still runs (Skolems are global, both Sup
	// copies define identical outputs).
	store := tree.NewStore()
	store.Put(tree.PlainName("b1"), tree.MustParse(
		`brochure < number < 1 >, title < "Golf" >, model < 1995 >, desc < "d" >,
		            spplrs < supplier < name < "VW" >, address < "Rue A, 75001 Paris" > > > >`))
	if _, err := engine.Run(c, store, nil); err != nil {
		t.Fatalf("combined program failed: %v", err)
	}
}

// --- Experiment E11: composition (§4.3) -----------------------------------

func brochureStore() *tree.Store {
	s := tree.NewStore()
	s.Put(tree.PlainName("b1"), tree.MustParse(
		`brochure < number < 1 >, title < "Golf" >, model < 1995 >, desc < "Sympa" >,
		            spplrs < supplier < name < "VW center" >, address < "Bd Lenoir, 75005 Paris" > > > >`))
	s.Put(tree.PlainName("b2"), tree.MustParse(
		`brochure < number < 2 >, title < "Golf" >, model < 1997 >, desc < "Sympa" >,
		            spplrs < supplier < name < "VW2" >, address < "Bd Leblanc, 75015 Paris" > >,
		                     supplier < name < "VW center" >, address < "Bd Lenoir, 75005 Paris" > > > >`))
	return s
}

func TestComposeSGMLToHTML(t *testing.T) {
	first := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	second := webProgram(t)
	composed, err := Compose(first, second)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	// The paper's Rule (2+WebCar'): car pages generated directly from
	// brochures, suppliers as anchors keyed by supplier name.
	rule, ok := composed.Rule("Car_Web1")
	if !ok {
		var names []string
		for _, r := range composed.Rules {
			names = append(names, r.Name)
		}
		t.Fatalf("Car_Web1 missing; rules: %v", names)
	}
	src := rule.String()
	for _, frag := range []string{
		"title -> car", `"suppliers: "`, "&HtmlPage(SN)", "cont -> supplier",
		"from Pbr = brochure",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("composed rule missing %q:\n%s", frag, src)
		}
	}
	// No intermediate (class car / class supplier) body patterns.
	for _, bp := range rule.Body {
		if strings.HasPrefix(bp.Tree.String(), "class") {
			t.Errorf("composed rule matches intermediate objects: %s", bp.Tree)
		}
	}
	// Supplier pages keyed by supplier name (Sup_Web1).
	if _, ok := composed.Rule("Sup_Web1"); !ok {
		t.Error("Sup_Web1 missing: supplier pages would not be generated")
	}
	// The composed program reparses.
	if _, err := yatl.Parse(composed.String()); err != nil {
		t.Errorf("composed program does not reparse: %v\n%s", err, composed.String())
	}
}

// canonicalPages renders the HtmlPage outputs of a run with reference
// names normalized, so composed (HtmlPage(SN)) and sequential
// (HtmlPage(&Psup(SN))) runs compare structurally.
func canonicalPages(t *testing.T, outputs *tree.Store) []string {
	t.Helper()
	var pages []string
	for _, e := range outputs.SortedEntries() {
		if e.Name.Functor != "HtmlPage" {
			continue
		}
		c := e.Tree.Clone()
		c.Walk(func(n *tree.Node) bool {
			if _, ok := n.RefName(); ok {
				n.Label = tree.Symbol("REF")
			}
			return true
		})
		pages = append(pages, c.String())
	}
	return pages
}

func TestComposedEquivalentToSequential(t *testing.T) {
	first := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	second := webProgram(t)
	composed, err := Compose(first, second)
	if err != nil {
		t.Fatal(err)
	}

	inputs := brochureStore()

	// Sequential: materialize the ODMG objects, then convert them.
	mid, err := engine.Run(first, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	midStore := tree.NewStore()
	for _, e := range mid.Outputs.Entries() {
		midStore.Put(e.Name, e.Tree)
	}
	seq, err := engine.Run(second, midStore, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Composed: one step, no intermediate store.
	direct, err := engine.Run(composed, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}

	seqPages := canonicalPages(t, seq.Outputs)
	dirPages := canonicalPages(t, direct.Outputs)
	if len(seqPages) != len(dirPages) {
		t.Fatalf("page counts differ: sequential %d, composed %d\nsequential:\n%s\ncomposed:\n%s",
			len(seqPages), len(dirPages),
			strings.Join(seqPages, "\n"), strings.Join(dirPages, "\n"))
	}
	seen := map[string]int{}
	for _, p := range seqPages {
		seen[p]++
	}
	for _, p := range dirPages {
		if seen[p] == 0 {
			t.Errorf("composed page has no sequential counterpart:\n%s", p)
			continue
		}
		seen[p]--
	}
}

func TestComposeIncompatiblePrograms(t *testing.T) {
	// HTML output does not feed the SGML-consuming program.
	first := webProgram(t)
	second := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	if _, err := Compose(first, second); err == nil {
		t.Error("incompatible composition should fail the type check")
	}
}

func TestCombinedCustomizedProgramShadowsGeneral(t *testing.T) {
	// The §4.2 scenario end to end: the derived (and customized)
	// WebCar rule combined with the general program must shadow Web1
	// for car objects — same Skolem functor, subtype bodies — while
	// Web1 keeps handling suppliers. Without the &Psup-typed join
	// variable this would be ambiguous and non-deterministic.
	web := webProgram(t)
	derived, err := Instantiate(web, pattern.PcarPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := derived.Rule("Web1_Pcar")
	// Customize: hide the suppliers item (rule newWebCar).
	body := rule.Head.Tree.Edges[1].To
	ul := body.Edges[1].To
	ul.Edges = ul.Edges[:2]
	rule.Body = rule.Body[:1]

	combined := Combine("custom", derived, web)
	res, err := engine.Run(combined, webGolfStore(), nil)
	if err != nil {
		t.Fatalf("combined run failed (hierarchy did not shadow Web1?): %v", err)
	}
	carPage, ok := res.Outputs.Get(tree.SkolemName("HtmlPage", tree.Ref{Name: tree.PlainName("c1")}))
	if !ok {
		t.Fatal("car page missing")
	}
	if strings.Contains(carPage.String(), "suppliers") {
		t.Errorf("customized layout not used for the car page: %s", carPage)
	}
	supPage, ok := res.Outputs.Get(tree.SkolemName("HtmlPage", tree.Ref{Name: tree.PlainName("s1")}))
	if !ok {
		t.Fatal("supplier page missing (general rule should still apply)")
	}
	if !strings.Contains(supPage.String(), `"VW center"`) {
		t.Errorf("supplier page wrong: %s", supPage)
	}
}

func TestDerivedJoinVariableIsReferenceTyped(t *testing.T) {
	derived, err := Instantiate(webProgram(t), pattern.PcarPattern(), carSchemaEnv())
	if err != nil {
		t.Fatal(err)
	}
	rule, _ := derived.Rule("Web1_Pcar")
	if !strings.Contains(rule.Body[0].Tree.String(), "Psup : &Psup") {
		t.Errorf("join variable should carry the &Psup reference domain:\n%s", rule.Body[0].Tree)
	}
	// The derived program is self-contained: it embeds the schema it
	// was instantiated against.
	foundSchema := false
	for _, m := range derived.Models {
		if m.Model.Has("Psup") {
			foundSchema = true
		}
	}
	if !foundSchema {
		t.Error("derived program does not embed the instantiation schema")
	}
}
