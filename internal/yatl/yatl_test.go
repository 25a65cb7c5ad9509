package yatl

import (
	"strings"
	"testing"

	"yat/internal/pattern"
	"yat/internal/tree"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`rule R { head P(X) = a -*> b -{}> c -[SN,I]> d -#J> e }`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokKind{
		tIdent, tIdent, tLBrace, tIdent, tIdent, tLParen, tIdent, tRParen,
		tEq, tIdent, tArrowStar, tIdent, tArrowGroup, tIdent, tOrderOpen,
		tIdent, tComma, tIdent, tOrderClose, tIdent, tIndexOpen, tIdent,
		tRAngle, tIdent, tRBrace, tEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lexAll("a // line comment\n# hash comment\nb")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].text != "a" || toks[1].text != "b" {
		t.Errorf("comments not skipped: %v", toks)
	}
}

func TestLexerNumbersAndStrings(t *testing.T) {
	toks, err := lexAll(`-5 3.25 1e3 "text \" quote" 1975`)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []tokKind{tInt, tFloat, tFloat, tString, tInt, tEOF}
	for i, k := range wantKinds {
		if toks[i].kind != k {
			t.Errorf("token %d kind = %v, want %v (%q)", i, toks[i].kind, k, toks[i].text)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"newline\n\"", "@", "a - b"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) should fail", src)
		}
	}
}

func TestLexerLineCol(t *testing.T) {
	toks, err := lexAll("a\n  bb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].line != 2 || toks[1].col != 3 {
		t.Errorf("token position = %d:%d, want 2:3", toks[1].line, toks[1].col)
	}
}

func TestParsePatternBasics(t *testing.T) {
	pt := MustParsePattern(`class -> supplier < -> name -> SN, -> city -> C >`)
	if pt.Label.(pattern.Const).Value.Display() != "class" {
		t.Error("root label wrong")
	}
	sup := pt.Edges[0].To
	if len(sup.Edges) != 2 {
		t.Fatalf("supplier edges = %d", len(sup.Edges))
	}
	name := sup.Edges[0].To
	snVar := name.Edges[0].To.Label.(pattern.Var)
	if snVar.Name != "SN" || !snVar.Domain.IsAny() {
		t.Errorf("SN var wrong: %+v", snVar)
	}
}

func TestParsePatternArrowsAndRefs(t *testing.T) {
	pt := MustParsePattern(`set < -*> &Psup(SN), -{}> ^Pcar(Pbr), -[SN,C]> X, -#I> Y >`)
	if len(pt.Edges) != 4 {
		t.Fatalf("edges = %d", len(pt.Edges))
	}
	if pt.Edges[0].Occ != pattern.OccStar {
		t.Error("edge 0 should be star")
	}
	ref := pt.Edges[0].To.Label.(pattern.PatRef)
	if !ref.Ref || ref.Name != "Psup" || len(ref.Args) != 1 || ref.Args[0].Var != "SN" {
		t.Errorf("ref wrong: %+v", ref)
	}
	deref := pt.Edges[1].To.Label.(pattern.PatRef)
	if deref.Ref || deref.Name != "Pcar" {
		t.Errorf("deref wrong: %+v", deref)
	}
	if pt.Edges[2].Occ != pattern.OccOrdered || len(pt.Edges[2].OrderBy) != 2 {
		t.Errorf("ordered edge wrong: %+v", pt.Edges[2])
	}
	if pt.Edges[3].Occ != pattern.OccIndex || pt.Edges[3].Index != "I" {
		t.Errorf("index edge wrong: %+v", pt.Edges[3])
	}
}

func TestParsePatternDomains(t *testing.T) {
	pt := MustParsePattern(`t < -> A : string|int, -> B : (set|bag), -> C : Ptype, -> D : any >`)
	a := pt.Edges[0].To.Label.(pattern.Var)
	if !a.Domain.Contains(tree.String("x")) || !a.Domain.Contains(tree.Int(1)) || a.Domain.Contains(tree.Float(1)) {
		t.Errorf("kind union domain wrong: %v", a.Domain)
	}
	b := pt.Edges[1].To.Label.(pattern.Var)
	if !b.Domain.Contains(tree.Symbol("set")) || b.Domain.Contains(tree.Symbol("list")) {
		t.Errorf("symbol domain wrong: %v", b.Domain)
	}
	c := pt.Edges[2].To.Label.(pattern.Var)
	if c.Domain.Pattern != "Ptype" {
		t.Errorf("pattern domain wrong: %v", c.Domain)
	}
	d := pt.Edges[3].To.Label.(pattern.Var)
	if !d.Domain.IsAny() {
		t.Errorf("any domain wrong: %v", d.Domain)
	}
}

func TestParsePatternLiterals(t *testing.T) {
	pt := MustParsePattern(`t < -> "str", -> 42, -> -3.5, -> true, -> false >`)
	want := []tree.Value{tree.String("str"), tree.Int(42), tree.Float(-3.5), tree.Bool(true), tree.Bool(false)}
	for i, w := range want {
		got := pt.Edges[i].To.Label.(pattern.Const).Value
		if !got.Equal(w) {
			t.Errorf("literal %d = %v, want %v", i, got, w)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		``,
		`a <`,
		`a < -> b`,
		`a < b >`,       // missing arrow
		`a -> `,         // missing target
		`^`,             // missing name
		`a -[]> b`,      // empty criteria
		`a -#> b`,       // missing index var
		`X : wrong`,     // unknown domain keyword
		`a -> b -> c d`, // trailing
	}
	for _, src := range bad {
		if _, err := ParsePattern(src); err == nil {
			t.Errorf("ParsePattern(%q) should fail", src)
		}
	}
}

func TestParseRule1(t *testing.T) {
	r, err := ParseRule(Rule1Source)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "Sup" {
		t.Errorf("name = %q", r.Name)
	}
	if r.Head.Functor != "Psup" || len(r.Head.Args) != 1 || r.Head.Args[0].Var != "SN" {
		t.Errorf("head = %+v", r.Head)
	}
	if len(r.Body) != 1 || r.Body[0].Var != "Pbr" {
		t.Errorf("body = %+v", r.Body)
	}
	if len(r.Preds) != 1 || r.Preds[0].Op != OpGt {
		t.Errorf("preds = %+v", r.Preds)
	}
	if len(r.Lets) != 2 || r.Lets[0].Func != "city" || r.Lets[1].Func != "zip" {
		t.Errorf("lets = %+v", r.Lets)
	}
}

func TestParseRule3MultiBody(t *testing.T) {
	r, err := ParseRule(Rule3Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Body) != 3 {
		t.Fatalf("body patterns = %d, want 3", len(r.Body))
	}
	names := []string{r.Body[0].Var, r.Body[1].Var, r.Body[2].Var}
	if names[0] != "Pbr" || names[1] != "Rsuppliers" || names[2] != "Rcars" {
		t.Errorf("body vars = %v", names)
	}
	if len(r.Preds) != 1 || !r.Preds[0].IsCall() || r.Preds[0].Call != "sameaddress" {
		t.Errorf("preds = %+v", r.Preds)
	}
}

func TestParseExceptionRule(t *testing.T) {
	r, err := ParseRule(ExceptionRuleSource)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exception || r.Head.Tree != nil {
		t.Errorf("exception rule wrong: %+v", r)
	}
}

func TestParseWebProgram(t *testing.T) {
	prog, err := Parse(WebProgramSource)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "odmg2html" {
		t.Errorf("name = %q", prog.Name)
	}
	if len(prog.Rules) != 6 {
		t.Fatalf("rules = %d, want 6", len(prog.Rules))
	}
	if len(prog.Models) != 1 || prog.Models[0].Name != "ODMG" {
		t.Fatalf("models = %+v", prog.Models)
	}
	odmg := prog.Models[0].Model
	ptype, ok := odmg.Get("Ptype")
	if !ok {
		t.Fatal("Ptype missing from model")
	}
	if len(ptype.Union) != 7 {
		t.Errorf("Ptype union branches = %d, want 7", len(ptype.Union))
	}
	if err := odmg.Validate(); err != nil {
		t.Errorf("parsed ODMG model invalid: %v", err)
	}
	// The parsed model must be an instance of Yat and accept the Car
	// Schema, like the hand-built fixture.
	if err := pattern.InstanceOf(odmg, pattern.YatModel()); err != nil {
		t.Errorf("parsed ODMG not a Yat instance: %v", err)
	}
	if err := pattern.InstanceOf(pattern.CarSchemaModel(), odmg); err != nil {
		t.Errorf("CarSchema not an instance of parsed ODMG: %v", err)
	}
	funcs := prog.Functors()
	if len(funcs) != 2 || funcs[0] != "HtmlPage" || funcs[1] != "HtmlElement" {
		t.Errorf("functors = %v", funcs)
	}
}

func TestParseAllFixtureSources(t *testing.T) {
	for name, src := range map[string]string{
		"SGMLToODMG":      SGMLToODMGSource,
		"SGMLToODMGPrime": SGMLToODMGPrimeSource,
		"Cyclic":          CyclicProgramSource,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, src := range map[string]string{
		"Rule1": Rule1Source, "Rule2": Rule2Source, "Rule1Prime": Rule1PrimeSource,
		"Rule3": Rule3Source, "Rule4": Rule4Source, "Rule5": Rule5Source,
	} {
		if _, err := ParseRule(strings.TrimSpace(src)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestParseOrderStatement(t *testing.T) {
	prog, err := Parse(`
program p
order WebCar before Web1
` + Rule1Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Orders) != 1 || prog.Orders[0].Before != "WebCar" || prog.Orders[0].After != "Web1" {
		t.Errorf("orders = %+v", prog.Orders)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	for _, src := range []string{Rule1Source, Rule2Source, Rule1PrimeSource, Rule3Source, Rule4Source, Rule5Source} {
		r1, err := ParseRule(strings.TrimSpace(src))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ParseRule(r1.String())
		if err != nil {
			t.Fatalf("reparse of printed rule failed: %v\n%s", err, r1.String())
		}
		if r1.String() != r2.String() {
			t.Errorf("round trip not stable:\n%s\nvs\n%s", r1.String(), r2.String())
		}
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	for _, src := range []string{WebProgramSource, SGMLToODMGSource, CyclicProgramSource} {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("reparse of printed program failed: %v\n%s", err, p1.String())
		}
		if p1.String() != p2.String() {
			t.Errorf("round trip not stable for %s", p1.Name)
		}
	}
}

func TestRuleVars(t *testing.T) {
	r := MustParseRule(strings.TrimSpace(Rule1Source))
	vars := r.Vars()
	want := map[string]bool{"SN": true, "C": true, "Z": true, "Pbr": true,
		"Num": true, "T": true, "Year": true, "D": true, "Add": true}
	if len(vars) != len(want) {
		t.Errorf("Vars = %v, want %d distinct", vars, len(want))
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected var %q", v)
		}
	}
}

func TestRuleRenameVars(t *testing.T) {
	r := MustParseRule(strings.TrimSpace(Rule1Source))
	ren := r.RenameVars(map[string]string{"SN": "SN1", "Add": "Add1", "C": "C1"})
	// Original untouched.
	if !strings.Contains(r.String(), "Psup(SN)") {
		t.Error("original rule mutated")
	}
	s := ren.String()
	for _, frag := range []string{"Psup(SN1)", "city(Add1)", "let C1 =", "-> name -> SN1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("renamed rule missing %q:\n%s", frag, s)
		}
	}
	if strings.Contains(strings.ReplaceAll(s, "SN1", ""), "SN") {
		t.Errorf("unrenamed SN left behind:\n%s", s)
	}
}

func TestRuleRenameVarsCriteriaAndIndex(t *testing.T) {
	r := MustParseRule(strings.TrimSpace(Rule5Source))
	ren := r.RenameVars(map[string]string{"I": "I9", "J": "J9"})
	s := ren.String()
	if !strings.Contains(s, "-#J9>") || !strings.Contains(s, "-#I9>") {
		t.Errorf("index vars not renamed:\n%s", s)
	}
	r4 := MustParseRule(strings.TrimSpace(Rule4Source))
	ren4 := r4.RenameVars(map[string]string{"SN": "S0"})
	if !strings.Contains(ren4.String(), "-[S0]>") {
		t.Errorf("criteria vars not renamed:\n%s", ren4.String())
	}
}

func TestRuleCloneIndependence(t *testing.T) {
	r := MustParseRule(strings.TrimSpace(Rule1Source))
	c := r.Clone()
	c.Head.Tree.Label = pattern.Var{Name: "Zap"}
	c.Preds[0].Op = OpLt
	c.Lets[0].Var = "Other"
	if r.Head.Tree.Label.(pattern.Const).Value.Display() != "class" {
		t.Error("clone shares head tree")
	}
	if r.Preds[0].Op != OpGt {
		t.Error("clone shares preds")
	}
	if r.Lets[0].Var != "C" {
		t.Error("clone shares lets")
	}
}

func TestProgramAccessors(t *testing.T) {
	prog := MustParse(WebProgramSource)
	if _, ok := prog.Rule("Web4"); !ok {
		t.Error("Rule(Web4) not found")
	}
	if _, ok := prog.Rule("Nope"); ok {
		t.Error("Rule(Nope) found")
	}
	if _, ok := prog.Model("ODMG"); !ok {
		t.Error("Model(ODMG) not found")
	}
	clone := prog.Clone()
	clone.Rules[0].Name = "Changed"
	if prog.Rules[0].Name == "Changed" {
		t.Error("Clone shares rules")
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		`rule R { }`,            // no head
		`rule R { head P = a }`, // no body
		`rule R { head P = a head Q = b from X = c }`, // two heads
		`rule R { exception head P = a from X = c }`,  // exception + head
		`rule R { head P = a from X = b where X ~ 1 }`,
		`rule R { head P = a from X = b bogus }`,
		`rule { head P = a from X = b }`, // missing name
	}
	for _, src := range bad {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q) should fail", src)
		}
	}
}

func TestPredString(t *testing.T) {
	p := Pred{Left: VarOperand("Year"), Op: OpGt, Right: ConstOperand(tree.Int(1975))}
	if p.String() != "Year > 1975" {
		t.Errorf("pred String = %q", p.String())
	}
	c := Pred{Call: "sameaddress", Args: []Operand{VarOperand("A"), VarOperand("B")}}
	if c.String() != "sameaddress(A, B)" {
		t.Errorf("call String = %q", c.String())
	}
}

// TestCmpOpHolds pins the comparison semantics the engine's predicate
// phase, its dead-rule analysis and the composer share: equality is
// numeric across Int and Float, ordering is tree.Compare's total order
// (kinds first: string < int/float by value), and a value that is none
// of the six operators is reported as unknown, never as false.
func TestCmpOpHolds(t *testing.T) {
	one, oneF, two, half := tree.Int(1), tree.Float(1), tree.Int(2), tree.Float(0.5)
	a, b := tree.String("a"), tree.String("b")
	for _, c := range []struct {
		l, r tree.Value
		// want lists the outcome under ==, !=, <, <=, >, >=.
		want [6]bool
	}{
		{one, one, [6]bool{true, false, false, true, false, true}},
		{one, two, [6]bool{false, true, true, true, false, false}},
		{two, one, [6]bool{false, true, false, false, true, true}},
		{half, one, [6]bool{false, true, true, true, false, false}},
		{two, half, [6]bool{false, true, false, false, true, true}},
		// Equal numerics of different kinds are equal, yet Compare breaks
		// the tie by kind (int before float) to keep sorting total.
		{one, oneF, [6]bool{true, false, true, true, false, false}},
		{oneF, one, [6]bool{true, false, false, false, true, true}},
		{a, b, [6]bool{false, true, true, true, false, false}},
		{b, b, [6]bool{true, false, false, true, false, true}},
		{a, one, [6]bool{false, true, true, true, false, false}},
		{half, b, [6]bool{false, true, false, false, true, true}},
		{tree.String("1"), one, [6]bool{false, true, true, true, false, false}},
	} {
		for i, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			if ok, known := op.Holds(c.l, c.r); !known || ok != c.want[i] {
				t.Errorf("%s %s %s = %v (known %v), want %v", c.l.Display(), op, c.r.Display(), ok, known, c.want[i])
			}
		}
	}
	if ok, known := CmpOp(6).Holds(one, one); ok || known {
		t.Errorf("unknown operator: ok=%v known=%v, want false/false", ok, known)
	}
}
