package engine

import (
	"context"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

// dispatchSource has one alpha-rooted rule, one beta-rooted rule and
// one variable-rooted (wildcard) rule — the three dispatch classes a
// plain program exercises.
const dispatchSource = `
program dispatch
rule A {
  head Pa(X) = outa -> v -> X
  from P = alpha < -> k -> X >
}
rule B {
  head Pb(X) = outb -> v -> X
  from P = beta < -> k -> X >
}
rule W {
  head Pw(Id) = outw -> v -> V
  from Id = M -> V
}
`

func analyze(t *testing.T, src string) *ProgramFacts {
	t.Helper()
	prog, err := yatl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return AnalyzeProgram(prog)
}

func TestAnalyzeProgramBasics(t *testing.T) {
	f := analyze(t, dispatchSource)
	for _, want := range []string{"Pa", "Pb", "Pw", "alpha", "beta", "k", "v", "outa"} {
		if f.Syms.Lookup(want) < 0 {
			t.Errorf("%q not interned", want)
		}
	}
	// Variable names are not symbols.
	if f.Syms.Lookup("X") >= 0 || f.Syms.Lookup("Id") >= 0 {
		t.Error("variable names leaked into the symbol table")
	}
	if f.RuleIndex["A"] != 0 || f.RuleIndex["B"] != 1 || f.RuleIndex["W"] != 2 {
		t.Errorf("rule index = %v", f.RuleIndex)
	}
	if f.Dispatch == nil {
		t.Fatal("no dispatch index")
	}
	if len(f.NeverFire) != 0 || len(f.Unreachable) != 0 {
		t.Errorf("clean program reported dead rules: never=%v unreachable=%v", f.NeverFire, f.Unreachable)
	}
	if !strings.Contains(f.Summary(), "dead-rules=0") {
		t.Errorf("summary = %q", f.Summary())
	}
}

func TestDispatchLookup(t *testing.T) {
	f := analyze(t, dispatchSource)
	d := f.Dispatch
	idx := func(name string) int { return f.RuleIndex[name] }

	alpha := tree.Sym("alpha", tree.Sym("k", tree.IntLeaf(1)))
	beta := tree.Sym("beta", tree.Sym("k", tree.IntLeaf(1)))
	gamma := tree.Sym("gamma")

	cases := []struct {
		name string
		node *tree.Node
		want map[string]bool // rule -> admissible
	}{
		{"alpha root", alpha, map[string]bool{"A": true, "B": false, "W": true}},
		{"beta root", beta, map[string]bool{"A": false, "B": true, "W": true}},
		{"unknown symbol", gamma, map[string]bool{"A": false, "B": false, "W": true}},
		{"nil node", nil, map[string]bool{"A": false, "B": false, "W": true}},
		{"non-symbol label", tree.Str("data"), map[string]bool{"A": false, "B": false, "W": true}},
		{"reference leaf", tree.RefLeaf(tree.PlainName("x")), map[string]bool{"A": false, "B": false, "W": true}},
	}
	for _, tc := range cases {
		rs := d.Lookup(tc.node)
		if rs == nil {
			t.Fatalf("%s: nil rule set", tc.name)
		}
		for rule, want := range tc.want {
			if got := rs.Has(idx(rule)); got != want {
				t.Errorf("%s: admits(%s) = %v, want %v", tc.name, rule, got, want)
			}
		}
	}
}

// TestDispatchSoundness cross-checks the index against the matcher:
// every rule that actually produces bindings on an input must be in
// the input's admissible set.
func TestDispatchSoundness(t *testing.T) {
	srcs := []string{
		"program p" + yatl.Rule1Source + yatl.Rule2Source,
		yatl.SGMLToODMGSource,
		yatl.WebProgramSource,
	}
	inputs := []*tree.Node{
		tree.Sym("brochure", tree.Sym("number", tree.IntLeaf(1))),
		tree.Sym("class", tree.Sym("car", tree.Sym("name", tree.Str("Golf")))),
		tree.Str("leaf"),
		tree.RefLeaf(tree.PlainName("obj")),
		tree.Sym("unrelated"),
	}
	m := &Matcher{}
	for _, src := range srcs {
		prog, err := yatl.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		f := AnalyzeProgram(prog)
		if f.Dispatch == nil {
			t.Fatal("no dispatch index")
		}
		for _, in := range inputs {
			rs := f.Dispatch.Lookup(in)
			for i, r := range prog.Rules {
				if r.Exception || rs.Has(i) {
					continue
				}
				// Excluded rule: no body pattern may match.
				for _, bp := range r.Body {
					if m.Matches(bp.Tree, in) {
						t.Errorf("%s: rule %s excluded for %s but matches", prog.Name, r.Name, in)
					}
				}
			}
		}
	}
}

const childRefineSource = `
program refine
rule R1 {
  head P1(X) = o -> one -> X
  from P = rec < -> a -> X >
}
rule R2 {
  head P2(X) = o -> two -> X
  from P = rec < -> b -> X >
}
`

func TestDispatchFirstChildRefinement(t *testing.T) {
	f := analyze(t, childRefineSource)
	d := f.Dispatch
	recA := tree.Sym("rec", tree.Sym("a", tree.IntLeaf(1)))
	recB := tree.Sym("rec", tree.Sym("b", tree.IntLeaf(1)))
	recC := tree.Sym("rec", tree.Sym("c", tree.IntLeaf(1)))

	if rs := d.Lookup(recA); !rs.Has(0) || rs.Has(1) {
		t.Errorf("rec<a>: admits R1=%v R2=%v, want true/false", rs.Has(0), rs.Has(1))
	}
	if rs := d.Lookup(recB); rs.Has(0) || !rs.Has(1) {
		t.Errorf("rec<b>: admits R1=%v R2=%v, want false/true", rs.Has(0), rs.Has(1))
	}
	// Unrefined child symbol: neither refined rule can match.
	if rs := d.Lookup(recC); rs.Has(0) || rs.Has(1) || rs.Len() != 0 {
		t.Errorf("rec<c>: admissible set %d rules, want empty", rs.Len())
	}
}

const deadRuleSource = `
program dead
rule Dead {
  head Pdead(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where 1 == 2
}
rule VarPred {
  head Pvar(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where X > 10
}
rule LetGuard {
  head Plet(X) = o -> v -> C
  from P = alpha < -> k -> X >
  let C = city(X)
  where 1 == 2
}
rule CallGuard {
  head Pcall(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where known(X)
  where 1 == 2
}
rule TrueConst {
  head Ptrue(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where 1 == 1
}
rule AfterVar {
  head Pafter(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where X > 10
  where 2 < 1
}
`

func TestNeverFire(t *testing.T) {
	f := analyze(t, deadRuleSource)
	want := []string{"AfterVar", "Dead"}
	if strings.Join(f.NeverFire, ",") != strings.Join(want, ",") {
		t.Errorf("NeverFire = %v, want %v", f.NeverFire, want)
	}
	// A rule with lets may warn during evaluation; a call predicate may
	// warn or raise. Neither is statically dead.
	for _, alive := range []string{"VarPred", "LetGuard", "CallGuard", "TrueConst"} {
		if f.NeverFires(alive) {
			t.Errorf("rule %s wrongly marked never-firing", alive)
		}
	}
	// Every dead rule here is alone in its group: all prunable.
	for _, dead := range want {
		if !f.Prunable(dead) {
			t.Errorf("singleton dead rule %s not prunable", dead)
		}
	}
	// An operator that is none of the six errors at run time; that is
	// not deadness, whatever its constant operands are.
	odd := &yatl.Rule{Preds: []yatl.Pred{{Left: yatl.ConstOperand(tree.Int(1)), Op: yatl.CmpOp(99), Right: yatl.ConstOperand(tree.Int(2))}}}
	if i := DeadPredIndex(odd); i != -1 {
		t.Errorf("unknown comparison operator proved the rule dead at predicate %d", i)
	}
}

const blockedDeadSource = `
program blocked
rule Dead {
  head Ps(X) = o -> one -> X
  from P = alpha < -> k -> X >
  where 1 == 2
}
rule Live {
  head Ps(X) = o -> two -> X
  from P = alpha < -> k -> X >
}
rule DeadShape {
  head Pt(P) = o -> one -> X
  from P = alpha < -> k -> X >
  where 1 == 2
}
rule LiveShape {
  head Pt(X) = o -> two -> X
  from P = alpha < -> k -> X >
}
`

func TestPrunabilityGuard(t *testing.T) {
	f := analyze(t, blockedDeadSource)
	if !f.NeverFires("Dead") || !f.NeverFires("DeadShape") {
		t.Fatalf("NeverFire = %v", f.NeverFire)
	}
	// Dead shares functor Ps and argument shape with Live: a match by
	// Dead could block Live under §4.2, so it must stay in slices.
	if f.Prunable("Dead") {
		t.Error("Dead shares its group's arg shape; must not be prunable")
	}
	// DeadShape mints Pt from the body identity, LiveShape from a data
	// variable — disjoint key spaces, safe to prune.
	if !f.Prunable("DeadShape") {
		t.Error("DeadShape has a unique arg shape; should be prunable")
	}
}

func TestOrderedDeadRuleNotPrunable(t *testing.T) {
	f := analyze(t, `
program ordered
order Dead before Other
rule Dead {
  head Pdead(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where 1 == 2
}
rule Other {
  head Pother(X) = o -> v -> X
  from P = alpha < -> k -> X >
}
`)
	if !f.NeverFires("Dead") {
		t.Fatalf("NeverFire = %v", f.NeverFire)
	}
	if f.Prunable("Dead") {
		t.Error("user-ordered dead rule must not be prunable")
	}
}

// unreachableSource: Pmain is the only root; CycA and CycB reference
// each other, so neither is a root and nothing reaches them. The
// minted variables are annotated (X : string) so the support closure
// can prove their atomic mints feed no alpha-rooted body.
const unreachableSource = `
program unreach
rule Main {
  head Pmain(P) = o -> item -{}> &Pused(X)
  from P = alpha < -> k -> X : string >
}
rule Used {
  head Pused(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
}
rule CycA {
  head Pca(X) = o -> v -{}> &Pcb(X)
  from P = alpha < -> k -> X : string >
}
rule CycB {
  head Pcb(X) = o -> v -{}> &Pca(X)
  from P = alpha < -> k -> X : string >
}
`

func TestUnreachableCycle(t *testing.T) {
	f := analyze(t, unreachableSource)
	// Pca and Pcb reference each other, so neither is a root; nothing
	// from the only root (Pmain) reaches them.
	if got := strings.Join(f.Unreachable, ","); got != "CycA,CycB" {
		t.Errorf("Unreachable = %v, want [CycA CycB]", f.Unreachable)
	}
	if !f.IsUnreachable("CycA") || f.IsUnreachable("Main") {
		t.Error("IsUnreachable inconsistent with Unreachable list")
	}
	// Unreachable rules are advisory: never pruned from slices.
	if f.Prunable("CycA") {
		t.Error("unreachable rule must not be prunable")
	}
}

func TestUnreachableSkipsRootlessPrograms(t *testing.T) {
	// Every group references the other: no roots, no verdict.
	f := analyze(t, `
program rootless
rule CycA {
  head Pca(X) = o -> v -{}> &Pcb(X)
  from P = alpha < -> k -> X >
}
rule CycB {
  head Pcb(X) = o -> v -{}> &Pca(X)
  from P = alpha < -> k -> X >
}
`)
	if len(f.Unreachable) != 0 {
		t.Errorf("rootless program reported unreachable rules: %v", f.Unreachable)
	}
}

func TestStrata(t *testing.T) {
	f := analyze(t, `
program strata
rule M {
  head Pm(P) = o -> x -{}> &Pa(X)
  from P = alpha < -> k -> X >
}
rule A {
  head Pa(X) = o -> x -{}> &Pb(X)
  from P = alpha < -> k -> X >
}
rule B {
  head Pb(X) = o -> v -> X
  from P = alpha < -> k -> X >
}
`)
	if len(f.Strata) != 3 {
		t.Fatalf("strata = %v, want 3 singleton strata", f.Strata)
	}
	got := []string{f.Strata[0][0], f.Strata[1][0], f.Strata[2][0]}
	if got[0] != "Pb" || got[1] != "Pa" || got[2] != "Pm" {
		t.Errorf("strata order = %v, want dependencies first [Pb Pa Pm]", got)
	}

	cyc := analyze(t, unreachableSource)
	found := false
	for _, s := range cyc.Strata {
		if strings.Join(s, ",") == "Pca,Pcb" {
			found = true
		}
	}
	if !found {
		t.Errorf("cycle not grouped into one stratum: %v", cyc.Strata)
	}
}

func TestDuplicateRuleNamesDisableDispatch(t *testing.T) {
	prog, err := yatl.Parse(`
program dup
rule Same {
  head Pa(X) = o -> v -> X
  from P = alpha < -> k -> X >
}
rule Same {
  head Pb(X) = o -> v -> X
  from P = beta < -> k -> X >
}
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := AnalyzeProgram(prog)
	if f.Dispatch != nil {
		t.Error("duplicate rule names must disable the dispatch index")
	}
	if f.Syms.Lookup("alpha") < 0 {
		t.Error("symbol table should survive duplicate names")
	}
}

func TestSliceForMemoAndPrune(t *testing.T) {
	prog, err := yatl.Parse(deadRuleSource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := AnalyzeProgram(prog)
	full := f.SliceFor()
	if full.Includes("Dead") || full.Includes("AfterVar") {
		t.Errorf("pruned full slice still includes dead rules: %s", full)
	}
	for _, alive := range []string{"VarPred", "LetGuard", "CallGuard", "TrueConst"} {
		if !full.Includes(alive) {
			t.Errorf("pruned slice lost live rule %s", alive)
		}
	}
	if again := f.SliceFor(); again != full {
		t.Error("no-functor slice not memoized")
	}
	one := f.SliceFor("Pvar")
	if one != f.SliceFor("Pvar") {
		t.Error("single-functor slice not memoized")
	}
	if !one.Constructs("VarPred") || one.Rules() != 1 {
		t.Errorf("Pvar slice = %s, want VarPred alone", one)
	}
	// A guarded dead rule survives pruning.
	g := analyze(t, blockedDeadSource)
	if sl := g.SliceFor("Ps"); !sl.Includes("Dead") {
		t.Error("non-prunable dead rule was dropped from its slice")
	}

	// Pruning must not change run results: same store, pruned full
	// slice versus unpruned full run.
	store := tree.NewStore()
	store.Put(tree.PlainName("in"), tree.Sym("alpha", tree.Sym("k", tree.IntLeaf(42))))
	reg := NewRegistry()
	reg.Register(Func{Name: "known", Params: []ParamType{Any}, Result: ParamType{Kinds: []tree.Kind{tree.KindBool}},
		Fn: func(args []tree.Value) (tree.Value, error) { return tree.Bool(true), nil }})
	plain, err := Run(prog, store, WithRegistry(reg))
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	pruned, err := RunSlice(context.Background(), prog, store, full, WithRegistry(reg))
	if err != nil {
		t.Fatalf("pruned run: %v", err)
	}
	if got, want := tree.FormatStore(pruned.Outputs), tree.FormatStore(plain.Outputs); got != want {
		t.Errorf("pruned slice changed outputs:\n got: %s\nwant: %s", got, want)
	}
}

// TestRunWithFacts pins the engine integration: an optimized run is
// byte-identical to a plain run, stale facts are ignored rather than
// trusted, and WithOptimize(false) disables supplied facts.
func TestRunWithFacts(t *testing.T) {
	src := "program p" + yatl.Rule1Source + yatl.Rule2Source
	prog := yatl.MustParse(src)
	store := fig3Store()
	plain, err := Run(prog, store, nil)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	want := tree.FormatStore(plain.Outputs)

	facts := AnalyzeProgram(prog)
	for _, par := range []int{1, 4} {
		opt, err := Run(prog, store, WithFacts(facts), WithParallelism(par))
		if err != nil {
			t.Fatalf("optimized run (par %d): %v", par, err)
		}
		if got := tree.FormatStore(opt.Outputs); got != want {
			t.Errorf("optimized outputs differ at parallelism %d:\n got: %s\nwant: %s", par, got, want)
		}
		if opt.Stats.Activations != plain.Stats.Activations || opt.Stats.Outputs != plain.Stats.Outputs {
			t.Errorf("optimized stats differ at parallelism %d: %+v vs %+v", par, opt.Stats, plain.Stats)
		}
	}

	// Stale facts: computed from a different program value.
	other := yatl.MustParse(src)
	stale, err := Run(prog, store, WithFacts(AnalyzeProgram(other)))
	if err != nil {
		t.Fatalf("stale-facts run: %v", err)
	}
	if got := tree.FormatStore(stale.Outputs); got != want {
		t.Errorf("stale facts changed outputs:\n got: %s\nwant: %s", got, want)
	}

	// The escape hatch wins over supplied facts.
	off, err := Run(prog, store, WithFacts(facts), WithOptimize(false))
	if err != nil {
		t.Fatalf("disabled run: %v", err)
	}
	if got := tree.FormatStore(off.Outputs); got != want {
		t.Errorf("WithOptimize(false) changed outputs:\n got: %s\nwant: %s", got, want)
	}

	// One-shot optimization without precomputed facts.
	auto, err := Run(prog, store, WithOptimize(true))
	if err != nil {
		t.Fatalf("auto-optimized run: %v", err)
	}
	if got := tree.FormatStore(auto.Outputs); got != want {
		t.Errorf("WithOptimize(true) changed outputs:\n got: %s\nwant: %s", got, want)
	}
}
