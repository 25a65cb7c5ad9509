package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// cleanSource has three live, mutually unrelated rules: nothing to
// report and nothing to prune.
const cleanSource = `
program clean
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
	f := analyze(t, cleanSource)
	if len(f.NeverFire) != 0 || len(f.Unreachable) != 0 {
		t.Errorf("clean program reported dead rules: never=%v unreachable=%v", f.NeverFire, f.Unreachable)
	}
	if sl := f.SliceFor(); sl.Rules() != 3 {
		t.Errorf("clean program's full slice = %s, want all 3 rules", sl)
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

// TestDuplicateRuleNamesDisablePruning: every fact here is keyed by
// rule name, so a program that reuses one gets no verdicts — a dead
// rule sharing its name with a live one must stay in the slices.
func TestDuplicateRuleNamesDisablePruning(t *testing.T) {
	f := analyze(t, `
program dup
rule Same {
  head Pa(X) = o -> v -> X
  from P = alpha < -> k -> X >
  where 1 == 2
}
rule Same {
  head Pb(X) = o -> v -> X
  from P = beta < -> k -> X >
}
`)
	if len(f.NeverFire) != 0 || f.NeverFires("Same") || f.Prunable("Same") {
		t.Errorf("duplicate rule names still produced by-name verdicts: never=%v", f.NeverFire)
	}
	if sl := f.SliceFor(); !sl.Includes("Same") {
		t.Errorf("full slice %s dropped the doubly-named rule", sl)
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

// TestRunWithFacts: WithFacts and WithOptimize outlive the path they
// selected only for the frozen benchmark's sake, whose convert_batch
// oracle compares a WithOptimize(false) run with a WithFacts one — so
// they must be accepted, in any combination, and change nothing.
func TestRunWithFacts(t *testing.T) {
	prog := yatl.MustParse("program p" + yatl.Rule1Source + yatl.Rule2Source)
	store := fig3Store()
	plain, err := Run(prog, store)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	want := resultFingerprint(plain)
	facts := AnalyzeProgram(prog)
	for name, opts := range map[string][]Option{
		"facts":          {WithFacts(facts)},
		"foreign facts":  {WithFacts(AnalyzeProgram(yatl.MustParse(cleanSource)))},
		"nil facts":      {WithFacts(nil)},
		"optimize":       {WithOptimize(true)},
		"facts, no opt.": {WithFacts(facts), WithOptimize(false)},
	} {
		res, err := Run(prog, store, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := resultFingerprint(res); got != want {
			t.Errorf("%s changed the run:\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// deadMixSource exercises every pruning path at once: a never-firing
// rule in a singleton group (prunable), a never-firing rule pinned by
// an order constraint (not prunable), a live rule, and an unreachable
// two-rule demand cycle. Pruning must not change a single output byte.
const deadMixSource = `
program deadmix

rule Live {
  head Plive(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
}

rule DeadAlone {
  head Pdead(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
  where 1 == 2
}

rule DeadOrdered {
  head Pord(X) = o -> v -> X
  from P = alpha < -> k -> X : string >
  where 2 < 1
}

rule OtherOrdered {
  head Poth(X) = o -> w -> X
  from P = alpha < -> k -> X : string >
}

rule CycA {
  head Pca(X) = out -> v -{}> &Pcb(X)
  from P = alpha < -> k -> X : string >
}

rule CycB {
  head Pcb(X) = out -> v -{}> &Pca(X)
  from P = alpha < -> k -> X : string >
}

order DeadOrdered before OtherOrdered
`

// warnHeavySource drops inputs through a failing external function, so
// every run produces a dense warning stream.
const warnHeavySource = `
program warny
rule W {
  head Pz(X) = z -> Z
  from X = addr -> A
  let Z = zip(A)
}
`

func warnHeavyStore() *tree.Store {
	s := tree.NewStore()
	for i := 1; i <= 12; i++ {
		addr := fmt.Sprintf("street %d, 7500%d Paris", i, i%10)
		if i%3 == 0 {
			addr = fmt.Sprintf("malformed %d", i) // no comma: zip() errors
		}
		s.Put(tree.PlainName(fmt.Sprintf("a%d", i)), tree.Sym("addr", tree.Str(addr)))
	}
	return s
}

func alphaStore(n int) *tree.Store {
	s := tree.NewStore()
	for i := 0; i < n; i++ {
		s.Put(tree.PlainName(fmt.Sprintf("in%d", i)),
			tree.Sym("alpha", tree.Sym("k", tree.Str(fmt.Sprintf("v%d", i)))))
	}
	return s
}

// optimizeCases is the pruning-equivalence corpus: every engine
// workload the test suite exercises elsewhere, plus the dead-rule mix
// and the warning-heavy program.
func optimizeCases() []struct {
	name   string
	src    string
	inputs *tree.Store
} {
	return []struct {
		name   string
		src    string
		inputs *tree.Store
	}{
		{"sgml2odmg", yatl.SGMLToODMGSource, mergeStores(fig3Store(), relationalStore())},
		{"sgml2odmgBig", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42)},
		{"sgml2odmgPrime", yatl.SGMLToODMGPrimeSource, workload.BrochureStore(6, 2, 4, 3)},
		{"annotated", yatl.AnnotatedSGMLToODMGSource, workload.BrochureStore(5, 2, 4, 7)},
		{"web", yatl.WebProgramSource, workload.ODMGStore(4, 3, 2, 3)},
		{"selective", workload.SelectiveProgram(12), workload.BrochureStore(6, 2, 5, 11)},
		{"deadmix", deadMixSource, alphaStore(9)},
		{"warnheavy", warnHeavySource, warnHeavyStore()},
	}
}

// TestOptimizedSliceEquivalence runs each workload through the pruned
// memoized full slice — the path the mediator takes — and demands the
// same bytes as a plain Run.
func TestOptimizedSliceEquivalence(t *testing.T) {
	for _, c := range optimizeCases() {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			facts := AnalyzeProgram(prog)
			plain, err := Run(prog, c.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := tree.FormatStore(plain.Outputs)
			res, err := RunSlice(context.Background(), prog, c.inputs, facts.SliceFor())
			if err != nil {
				t.Fatal(err)
			}
			if got := tree.FormatStore(res.Outputs); got != want {
				t.Errorf("pruned full slice diverges:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
