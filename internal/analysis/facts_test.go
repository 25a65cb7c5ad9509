package analysis

import (
	"path/filepath"
	"testing"

	"yat/internal/engine"
)

// TestDeadRuleSharesOneAnalysis: every pass of one Run that asks for
// the engine's analysis gets the same engine.AnalyzeProgram result,
// computed once, and the next Run computes its own.
func TestDeadRuleSharesOneAnalysis(t *testing.T) {
	prog := parseFile(t, filepath.Join("testdata", "unreachable_cycle.yatl"))
	var seen []*engine.ProgramFacts
	grab := &Analyzer{
		Name: "grab",
		Doc:  "test-only facts grabber",
		Run: func(pass *Pass) error {
			seen = append(seen, pass.ProgramFacts())
			return nil
		},
	}
	for run := 0; run < 2; run++ {
		if _, err := Run(prog, []*Analyzer{grab, DeadRule, grab}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if seen[0] == nil || seen[0] != seen[1] {
		t.Error("the passes of one Run did not share one AnalyzeProgram result")
	}
	if seen[2] == seen[0] || seen[2] != seen[3] {
		t.Error("a second Run did not compute its own analysis")
	}
}
