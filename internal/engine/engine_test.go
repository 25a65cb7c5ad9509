package engine

import (
	"errors"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

func runProgram(t *testing.T, src string, inputs *tree.Store) *Result {
	t.Helper()
	prog, err := yatl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Run(prog, inputs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func wantTree(t *testing.T, store *tree.Store, name tree.Name, want string) {
	t.Helper()
	got, ok := store.Get(name)
	if !ok {
		var names []string
		for _, e := range store.Entries() {
			names = append(names, e.Name.String())
		}
		t.Fatalf("output %s missing; have: %s", name, strings.Join(names, ", "))
	}
	expected := tree.MustParse(want)
	if !got.Equal(expected) {
		t.Errorf("output %s:\n got: %s\nwant: %s", name, got, expected)
	}
}

// --- Experiment E3: Figure 3, Rule 1 -----------------------------------

func TestFigure3Rule1(t *testing.T) {
	res := runProgram(t, "program p\n"+yatl.Rule1Source, fig3Store())
	// Exactly two supplier objects: "VW center" appears in both
	// brochures but the Skolem identity deduplicates it.
	if res.Outputs.Len() != 2 {
		t.Fatalf("outputs = %d, want 2:\n%s", res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
	wantTree(t, res.Outputs, psupOID("VW center"),
		`class < supplier < name < "VW center" >, city < "Paris" >, zip < 75005 > > >`)
	wantTree(t, res.Outputs, psupOID("VW2"),
		`class < supplier < name < "VW2" >, city < "Paris" >, zip < 75015 > > >`)
	if len(res.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", res.Warnings)
	}
}

func TestRule1YearFilter(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.PlainName("old"), brochure(9, "Beetle", 1968, "Classic",
		[2]string{"Oldtimer GmbH", "Hauptstr 1, 10115 Berlin"}))
	res := runProgram(t, "program p\n"+yatl.Rule1Source, store)
	if res.Outputs.Len() != 0 {
		t.Errorf("pre-1975 brochures should produce no suppliers:\n%s", tree.FormatStore(res.Outputs))
	}
	// The brochure still matched (phase 1), so it is not reported
	// unconverted — predicates filter bindings, not inputs.
	if len(res.Unconverted) != 0 {
		t.Errorf("unconverted = %v", res.Unconverted)
	}
}

func TestRule1TypeFilterDropsMalformedAddress(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.PlainName("b"), brochure(1, "Golf", 1995, "d",
		[2]string{"OK corp", "Bd Lenoir, 75005 Paris"},
		[2]string{"Broken corp", "no comma here"}))
	prog := yatl.MustParse("program p\n" + yatl.Rule1Source)
	res, err := Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Outputs.Get(psupOID("OK corp")); !ok {
		t.Error("well-formed supplier missing")
	}
	if _, ok := res.Outputs.Get(psupOID("Broken corp")); ok {
		t.Error("supplier with unparseable address should be dropped")
	}
	if len(res.Warnings) == 0 {
		t.Error("expected a warning about the dropped binding")
	}
}

// --- Rules 1+2: the §3.1 program ----------------------------------------

func TestRules1And2Program(t *testing.T) {
	res := runProgram(t, yatl.SGMLToODMGSource, fig3Store())
	if res.Outputs.Len() != 4 {
		t.Fatalf("outputs = %d, want 4 (2 suppliers + 2 cars):\n%s",
			res.Outputs.Len(), tree.FormatStore(res.Outputs))
	}
	wantTree(t, res.Outputs, pcarOID("b1"),
		`class < car < name < "Golf" >, desc < "Sympa" >,
		         suppliers < set < &Psup("VW center") > > > >`)
	wantTree(t, res.Outputs, pcarOID("b2"),
		`class < car < name < "Golf" >, desc < "Sympa" >,
		         suppliers < set < &Psup("VW2"), &Psup("VW center") > > > >`)
}

func TestRules1And2RuleOrderIrrelevant(t *testing.T) {
	// Skolem functions are global to the program, so Rule 1 and Rule
	// 2 can be applied in any order (§3.1).
	reversed := "program p\n" + yatl.Rule2Source + yatl.Rule1Source
	a := runProgram(t, yatl.SGMLToODMGSource, fig3Store())
	b := runProgram(t, reversed, fig3Store())
	for _, e := range a.Outputs.Entries() {
		other, ok := b.Outputs.Get(e.Name)
		if !ok || !other.Equal(e.Tree) {
			t.Errorf("output %s differs under rule reordering", e.Name)
		}
	}
	if a.Outputs.Len() != b.Outputs.Len() {
		t.Errorf("output counts differ: %d vs %d", a.Outputs.Len(), b.Outputs.Len())
	}
}

func TestRule2DanglingSupplierRefWarns(t *testing.T) {
	// A pre-1975 brochure: Rule 2 creates the car but Rule 1 filters
	// out its supplier, leaving a dangling reference.
	store := tree.NewStore()
	store.Put(tree.PlainName("old"), brochure(9, "Beetle", 1968, "Classic",
		[2]string{"Oldtimer GmbH", "Hauptstr 1, 10115 Berlin"}))
	res := runProgram(t, yatl.SGMLToODMGSource, store)
	if _, ok := res.Outputs.Get(pcarOID("old")); !ok {
		t.Fatal("car object missing")
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "dangling reference") && strings.Contains(w, "Oldtimer") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected dangling-reference warning, got %v", res.Warnings)
	}
}

// --- Experiment E4: Rule 1' + Rule 2, mutual references ------------------

func TestRule1Prime2CyclicReferences(t *testing.T) {
	res := runProgram(t, yatl.SGMLToODMGPrimeSource, fig3Store())
	wantTree(t, res.Outputs, psupOID("VW center"),
		`class < supplier < name < "VW center" >, city < "Paris" >, zip < 75005 >,
		         sells < set < &Pcar(&b1), &Pcar(&b2) > > > >`)
	wantTree(t, res.Outputs, psupOID("VW2"),
		`class < supplier < name < "VW2" >, city < "Paris" >, zip < 75015 >,
		         sells < set < &Pcar(&b2) > > > >`)
	// Cars still reference suppliers: a cyclic object graph, legal
	// because both directions use & references.
	wantTree(t, res.Outputs, pcarOID("b1"),
		`class < car < name < "Golf" >, desc < "Sympa" >,
		         suppliers < set < &Psup("VW center") > > > >`)
}

func TestCyclicProgramRejected(t *testing.T) {
	prog := yatl.MustParse(yatl.CyclicProgramSource)
	_, err := Run(prog, fig3Store(), nil)
	if err == nil {
		t.Fatal("cyclic program (both & removed) should be rejected")
	}
	if !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("error should mention the cycle: %v", err)
	}
	// Behind the static check, the dereferencing pass keeps its own
	// guard: outputs whose dereferences cycle fail there too.
	a, b := tree.SkolemName("A", tree.Int(1)), tree.SkolemName("B", tree.Int(1))
	outputs := tree.NewStore()
	outputs.Put(a, tree.Sym("x", tree.New(&derefVal{Name: b})))
	outputs.Put(b, tree.New(&derefVal{Name: a}))
	e := &derefExpander{outputs: outputs, state: make([]uint8, outputs.Len())}
	if _, err := e.expandAt(0, a); err == nil || !strings.Contains(err.Error(), "cyclic dereferencing through") {
		t.Errorf("dynamic guard error: %v", err)
	}
}

// A configuration has one spelling, the With… options: an *Options
// value is what they build, not an option itself.
func TestOptionsIsNotAnOption(t *testing.T) {
	if _, ok := any(NewOptions()).(Option); ok {
		t.Fatal("*Options implements Option")
	}
}

// Two rules with one name are one rule to every by-name lookup
// (slices, §4.2 orders, reload carry-over): Check refuses the program,
// naming the rule, and so do Compile and every run.
func TestDuplicateRuleNamesRejected(t *testing.T) {
	prog := yatl.MustParse("program p\n" + yatl.Rule1Source + yatl.Rule2Source)
	prog.Rules[1].Name = prog.Rules[0].Name
	name := prog.Rules[0].Name
	var dup *DuplicateRuleError
	if err := Check(prog); !errors.As(err, &dup) || dup.Rule != name {
		t.Fatalf("Check: %v, want a *DuplicateRuleError naming %s", err, name)
	}
	if _, err := Compile(prog); !errors.As(err, &dup) || !strings.Contains(err.Error(), "named "+name) {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := Run(prog, fig3Store()); !errors.As(err, &dup) {
		t.Fatalf("Run: %v", err)
	}
	if _, err := RunSlice(nil, prog, fig3Store(), nil); !errors.As(err, &dup) {
		t.Fatalf("RunSlice: %v", err)
	}
	prog.Rules[1].Name = name + "b"
	if err := Check(prog); err != nil {
		t.Fatalf("distinct names: %v", err)
	}
}

// --- Experiment E5: Rule 3, heterogeneous join --------------------------

func TestRule3HeterogeneousJoin(t *testing.T) {
	inputs := mergeStores(fig3Store(), relationalStore())
	res := runProgram(t, "program p\n"+yatl.Rule3Source, inputs)
	// Car 10 ↔ brochure b1 (number 1): supplier "VW center" matches
	// relational sid 1 via name + sameaddress. Car 20 ↔ brochure b2:
	// both suppliers match.
	wantTree(t, res.Outputs, tree.SkolemName("Pcar", tree.Int(10)),
		`class < car < name < "Golf" >, desc < "Sympa" >,
		         suppliers < set < &Psup(1) > > > >`)
	wantTree(t, res.Outputs, tree.SkolemName("Pcar", tree.Int(20)),
		`class < car < name < "Golf" >, desc < "Sympa" >,
		         suppliers < set < &Psup(2), &Psup(1) > > > >`)
}

func TestRule3AddressMismatchFiltersJoin(t *testing.T) {
	inputs := fig3Store()
	rel := tree.NewStore()
	rel.Put(tree.PlainName("Rsuppliers"), tree.Sym("suppliers",
		tree.Sym("row",
			tree.Sym("sid", tree.IntLeaf(1)),
			tree.Sym("name", tree.Str("VW center")),
			tree.Sym("city", tree.Str("Lyon")), // wrong city
			tree.Sym("address", tree.Str("Bd Lenoir")),
			tree.Sym("tel", tree.Str("t")))))
	rel.Put(tree.PlainName("Rcars"), tree.Sym("cars",
		tree.Sym("row",
			tree.Sym("cid", tree.IntLeaf(10)),
			tree.Sym("broch_num", tree.IntLeaf(1)))))
	res := runProgram(t, "program p\n"+yatl.Rule3Source, mergeStores(inputs, rel))
	if res.Outputs.Len() != 0 {
		t.Errorf("sameaddress should reject the Lyon row:\n%s", tree.FormatStore(res.Outputs))
	}
}

// --- Experiment E6: Rule 4, ordered grouping ------------------------------

func TestRule4OrderedList(t *testing.T) {
	store := tree.NewStore()
	// Duplicated supplier and reverse-alphabetical order in the
	// input; the []SN primitive must deduplicate and sort.
	store.Put(tree.PlainName("b"), brochure(1, "Golf", 1995, "d",
		[2]string{"Zeta Motors", "Rue A, 75001 Paris"},
		[2]string{"Alpha Cars", "Rue B, 75002 Paris"},
		[2]string{"Zeta Motors", "Rue A, 75001 Paris"},
		[2]string{"Mid Auto", "Rue C, 75003 Paris"}))
	res := runProgram(t, "program p\n"+yatl.Rule4Source+yatl.Rule1Source, store)
	wantTree(t, res.Outputs, tree.SkolemName("PsupList", tree.Ref{Name: tree.PlainName("b")}),
		`list < &Psup("Alpha Cars"), &Psup("Mid Auto"), &Psup("Zeta Motors") >`)
}

func TestGroupEdgeKeepsDistinctOnly(t *testing.T) {
	// Rule 2's -{}> removes duplicate supplier references.
	store := tree.NewStore()
	store.Put(tree.PlainName("b"), brochure(1, "Golf", 1995, "d",
		[2]string{"Dup", "Rue A, 75001 Paris"},
		[2]string{"Dup", "Rue A, 75001 Paris"}))
	res := runProgram(t, yatl.SGMLToODMGSource, store)
	wantTree(t, res.Outputs, pcarOID("b"),
		`class < car < name < "Golf" >, desc < "d" >,
		         suppliers < set < &Psup("Dup") > > > >`)
}

func TestStarEdgeKeepsDuplicates(t *testing.T) {
	// Two distinct bindings (different addresses) project to the same
	// supplier reference: a star head edge keeps both occurrences
	// (the "implicit grouping without duplicate elimination" of
	// §4.1), where -{}> would keep one.
	src := `
program p
rule CarStar {
  head Pcar(Pbr) = class -> car -> suppliers -> set -*> &Psup(SN)
  from Pbr = ` + yatl.BrochureBody + `
}
`
	store := tree.NewStore()
	store.Put(tree.PlainName("b"), brochure(1, "Golf", 1995, "d",
		[2]string{"Dup", "Rue A, 75001 Paris"},
		[2]string{"Dup", "Rue B, 75002 Paris"}))
	res := runProgram(t, src, store)
	wantTree(t, res.Outputs, pcarOID("b"),
		`class < car < suppliers < set < &Psup("Dup"), &Psup("Dup") > > > >`)
}

func TestIdenticalBindingsFormASet(t *testing.T) {
	// "Each pattern ... is matched against the body of the rule thus
	// forming the following SET of variable bindings": two literally
	// identical suppliers yield one binding, hence one reference even
	// under a star edge.
	src := `
program p
rule CarStar {
  head Pcar(Pbr) = class -> car -> suppliers -> set -*> &Psup(SN)
  from Pbr = ` + yatl.BrochureBody + `
}
`
	store := tree.NewStore()
	store.Put(tree.PlainName("b"), brochure(1, "Golf", 1995, "d",
		[2]string{"Dup", "Rue A, 75001 Paris"},
		[2]string{"Dup", "Rue A, 75001 Paris"}))
	res := runProgram(t, src, store)
	wantTree(t, res.Outputs, pcarOID("b"),
		`class < car < suppliers < set < &Psup("Dup") > > > >`)
}

// --- Experiment E7: Figure 4 / Rule 5, matrix transpose ------------------

func TestFigure4Transpose(t *testing.T) {
	store := tree.NewStore()
	// The 3×2 matrix of Figure 4: monthly sales per model.
	store.Put(tree.PlainName("m"), tree.MustParse(
		`sales < jan < golf < 10 >, polo < 20 > >,
		         feb < golf < 30 >, polo < 40 > >,
		         mar < golf < 50 >, polo < 60 > > >`))
	res := runProgram(t, "program p\n"+yatl.Rule5Source, store)
	wantTree(t, res.Outputs, tree.SkolemName("New", tree.Ref{Name: tree.PlainName("m")}),
		`sales < golf < jan < 10 >, feb < 30 >, mar < 50 > >,
		         polo < jan < 20 >, feb < 40 >, mar < 60 > > >`)
}

func TestTransposeIsInvolution(t *testing.T) {
	store := tree.NewStore()
	m := tree.MustParse(`mat < r1 < a < 1 >, b < 2 >, c < 3 > >, r2 < a < 4 >, b < 5 >, c < 6 > > >`)
	store.Put(tree.PlainName("m"), m)
	res1 := runProgram(t, "program p\n"+yatl.Rule5Source, store)
	t1, _ := res1.Outputs.Get(tree.SkolemName("New", tree.Ref{Name: tree.PlainName("m")}))

	store2 := tree.NewStore()
	store2.Put(tree.PlainName("t"), t1)
	res2 := runProgram(t, "program p\n"+yatl.Rule5Source, store2)
	t2, _ := res2.Outputs.Get(tree.SkolemName("New", tree.Ref{Name: tree.PlainName("t")}))
	if !t2.Equal(m) {
		t.Errorf("transpose twice should be identity:\n in: %s\nout: %s", m, t2)
	}
}

func TestTransposeRaggedMatrixStillTransposesCells(t *testing.T) {
	store := tree.NewStore()
	store.Put(tree.PlainName("m"), tree.MustParse(
		`mat < r1 < a < 1 > >, r2 < a < 3 >, b < 4 > > >`))
	res := runProgram(t, "program p\n"+yatl.Rule5Source, store)
	wantTree(t, res.Outputs, tree.SkolemName("New", tree.Ref{Name: tree.PlainName("m")}),
		`mat < a < r1 < 1 >, r2 < 3 > >, b < r2 < 4 > > >`)
}

// --- Non-determinism (§3.1) ----------------------------------------------

func TestNonDeterminismDetected(t *testing.T) {
	// Two suppliers share the name but not the address: Psup(SN) gets
	// two distinct city values.
	store := tree.NewStore()
	store.Put(tree.PlainName("b1"), brochure(1, "Golf", 1995, "d",
		[2]string{"VW center", "Bd Lenoir, 75005 Paris"}))
	store.Put(tree.PlainName("b2"), brochure(2, "Polo", 1996, "d",
		[2]string{"VW center", "Rue Royale, 69001 Lyon"}))
	prog := yatl.MustParse("program p\n" + yatl.Rule1Source)
	_, err := Run(prog, store, nil)
	var nd *NonDetError
	if !errors.As(err, &nd) {
		t.Fatalf("expected NonDetError, got %v", err)
	}
}

// --- Exception rule (§3.5) ------------------------------------------------

func TestExceptionRuleFires(t *testing.T) {
	store := fig3Store()
	store.Put(tree.PlainName("stray"), tree.Sym("memo", tree.Str("not a brochure")))
	prog := yatl.MustParse(yatl.SGMLToODMGSource + yatl.ExceptionRuleSource)
	res, err := Run(prog, store, nil)
	var unc *ErrUnconverted
	if !errors.As(err, &unc) {
		t.Fatalf("expected ErrUnconverted, got %v", err)
	}
	if len(unc.IDs) != 1 || unc.IDs[0].Display() != "&stray" {
		t.Errorf("unconverted = %v", unc.IDs)
	}
	// The partial result is still available.
	if res == nil || res.Outputs.Len() != 4 {
		t.Error("partial outputs should be reported alongside the exception")
	}
}

func TestExceptionRuleSilentWhenAllConverted(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource + yatl.ExceptionRuleSource)
	if _, err := Run(prog, fig3Store(), nil); err != nil {
		t.Fatalf("no exception expected: %v", err)
	}
}

func TestUnconvertedReportedWithoutExceptionRule(t *testing.T) {
	store := fig3Store()
	store.Put(tree.PlainName("stray"), tree.Sym("memo"))
	res := runProgram(t, yatl.SGMLToODMGSource, store)
	if len(res.Unconverted) != 1 {
		t.Errorf("Unconverted = %v", res.Unconverted)
	}
}

// --- Experiment E8: the Web program --------------------------------------

func golfWebRun(t *testing.T) *Result {
	t.Helper()
	return runProgram(t, yatl.WebProgramSource, webGolfStore())
}

func TestWebProgramPages(t *testing.T) {
	res := golfWebRun(t)
	c1 := tree.Ref{Name: tree.PlainName("c1")}
	s1 := tree.Ref{Name: tree.PlainName("s1")}
	wantTree(t, res.Outputs, tree.SkolemName("HtmlPage", c1),
		`html < head < title < car > >,
		        body < h1 < car >,
		               ul < li < "name: ", "Golf" >,
		                    li < "desc: ", "A classic compact car" >,
		                    li < "suppliers: ",
		                         ul < li < a < href < &HtmlPage(&s1) >, cont < supplier > > >,
		                              li < a < href < &HtmlPage(&s2) >, cont < supplier > > > > > > > >`)
	wantTree(t, res.Outputs, tree.SkolemName("HtmlPage", s1),
		`html < head < title < supplier > >,
		        body < h1 < supplier >,
		               ul < li < "name: ", "VW center" >,
		                    li < "city: ", "Paris" >,
		                    li < "zip: ", "75005" > > > >`)
}

func TestWebProgramHierarchyDispatch(t *testing.T) {
	res := golfWebRun(t)
	// The class object s1 is converted by Web6 (anchor), not by the
	// generic Web2 (string): specific rules first (§4.2).
	s1 := tree.Ref{Name: tree.PlainName("s1")}
	wantTree(t, res.Outputs, tree.SkolemName("HtmlElement", s1),
		`a < href < &HtmlPage(&s1) >, cont < supplier > >`)
	// An atom is converted by Web2.
	wantTree(t, res.Outputs, tree.SkolemName("HtmlElement", tree.String("Golf")), `"Golf"`)
}

func TestWebProgramSafeRecursionAccepted(t *testing.T) {
	prog := yatl.MustParse(yatl.WebProgramSource)
	if err := CheckSafety(prog); err != nil {
		t.Errorf("the Web program is safe-recursive and must be accepted: %v", err)
	}
}

// webGolfStore returns the Figure 2 Golf data used by the Web tests.
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

func TestWebProgramListUsesOl(t *testing.T) {
	// A list-typed attribute goes through Web5 (ordered list → ol).
	store := tree.NewStore()
	store.Put(tree.PlainName("o"), tree.MustParse(
		`class < thing < items < list < "a", "b" > > > >`))
	res := runProgram(t, yatl.WebProgramSource, store)
	found := false
	for _, e := range res.Outputs.Entries() {
		if e.Name.Functor == "HtmlElement" && strings.HasPrefix(e.Tree.Label.Display(), "ol") {
			found = true
			if len(e.Tree.Children) != 2 {
				t.Errorf("ol should have 2 items: %s", e.Tree)
			}
		}
	}
	if !found {
		t.Errorf("no ol output; outputs:\n%s", tree.FormatStore(res.Outputs))
	}
}

// --- Stats and determinism ------------------------------------------------

func TestRunStats(t *testing.T) {
	res := runProgram(t, yatl.SGMLToODMGSource, fig3Store())
	if res.Stats.Outputs != 4 {
		t.Errorf("Stats.Outputs = %d", res.Stats.Outputs)
	}
	if res.Stats.Activations < 2 {
		t.Errorf("Stats.Activations = %d", res.Stats.Activations)
	}
	if res.Stats.Bindings == 0 || res.Stats.Rounds == 0 {
		t.Errorf("Stats = %+v", res.Stats)
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		res := runProgram(t, yatl.WebProgramSource, webGolfStore())
		dump := tree.FormatStore(res.Outputs)
		if i == 0 {
			first = dump
			continue
		}
		if dump != first {
			t.Fatalf("run %d produced different output", i)
		}
	}
}
