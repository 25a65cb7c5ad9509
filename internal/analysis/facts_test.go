package analysis

import (
	"path/filepath"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

// TestDeadRuleSharesOneAnalysis: every pass of one Run that asks for
// the dead rules gets the same FindDeadRules result, computed once,
// and the next Run computes its own.
func TestDeadRuleSharesOneAnalysis(t *testing.T) {
	prog := parseFile(t, filepath.Join("testdata", "unreachable_cycle.yatl"))
	var seen []*DeadRules
	grab := &Analyzer{
		Name: "grab",
		Doc:  "test-only facts grabber",
		Run: func(pass *Pass) error {
			seen = append(seen, pass.DeadRules())
			return nil
		},
	}
	for run := 0; run < 2; run++ {
		if _, err := Run(prog, []*Analyzer{grab, DeadRule, grab}); err != nil {
			t.Fatal(err)
		}
	}
	if seen[0] == nil || seen[0] != seen[1] {
		t.Error("the passes of one Run did not share one FindDeadRules result")
	}
	if seen[2] == seen[0] || seen[2] != seen[3] {
		t.Error("a second Run did not compute its own analysis")
	}
}

func deadRules(t *testing.T, src string) *DeadRules {
	t.Helper()
	prog, err := yatl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return FindDeadRules(prog)
}

// TestDeadRulesCleanProgram: three live, mutually unrelated rules
// leave nothing to report.
func TestDeadRulesCleanProgram(t *testing.T) {
	d := deadRules(t, `
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
`)
	if len(d.NeverFire) != 0 || len(d.Unreachable) != 0 {
		t.Errorf("clean program reported dead rules: never=%v unreachable=%v", d.NeverFire, d.Unreachable)
	}
}

func TestNeverFire(t *testing.T) {
	d := deadRules(t, `
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
`)
	// A rule with lets may warn during evaluation; a call predicate may
	// warn or raise. Neither is statically dead.
	if got, want := strings.Join(d.NeverFire, ","), "AfterVar,Dead"; got != want {
		t.Errorf("NeverFire = %v, want %s", d.NeverFire, want)
	}
	// An operator that is none of the six errors at run time; that is
	// not deadness, whatever its constant operands are.
	odd := &yatl.Rule{Preds: []yatl.Pred{{Left: yatl.ConstOperand(tree.Int(1)), Op: yatl.CmpOp(99), Right: yatl.ConstOperand(tree.Int(2))}}}
	if i := deadPredIndex(odd); i != -1 {
		t.Errorf("unknown comparison operator proved the rule dead at predicate %d", i)
	}
}

// TestUnreachableCycle: Pmain is the only root; CycA and CycB reference
// each other, so neither is a root and nothing reaches them. The minted
// variables are annotated (X : string) so the support closure can prove
// their atomic mints feed no alpha-rooted body.
func TestUnreachableCycle(t *testing.T) {
	d := deadRules(t, `
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
`)
	if got := strings.Join(d.Unreachable, ","); got != "CycA,CycB" {
		t.Errorf("Unreachable = %v, want [CycA CycB]", d.Unreachable)
	}
}

func TestUnreachableSkipsRootlessPrograms(t *testing.T) {
	// Every group references the other: no roots, no verdict.
	d := deadRules(t, `
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
	if len(d.Unreachable) != 0 {
		t.Errorf("rootless program reported unreachable rules: %v", d.Unreachable)
	}
}

// TestDuplicateRuleNamesGiveNoVerdicts: every fact here is keyed by
// rule name, so a program that reuses one gets no verdicts.
func TestDuplicateRuleNamesGiveNoVerdicts(t *testing.T) {
	d := deadRules(t, `
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
	if len(d.NeverFire) != 0 || len(d.Unreachable) != 0 {
		t.Errorf("duplicate rule names still produced by-name verdicts: never=%v unreachable=%v", d.NeverFire, d.Unreachable)
	}
}
