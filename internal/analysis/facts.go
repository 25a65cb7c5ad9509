// The engine's program analysis, as the framework sees it: DeadRule
// reports what engine.AnalyzeProgram proves dead.
package analysis

import (
	"yat/internal/engine"
	"yat/internal/yatl"
)

// ProgramFacts returns the engine's analysis of the pass's program
// (engine.AnalyzeProgram), computed on first need and shared by every
// pass of the driver Run.
func (p *Pass) ProgramFacts() *engine.ProgramFacts { return p.facts() }

// DeadRule reports the statically-dead rules: rules whose constant
// predicates can never hold, positioned on the offending predicate,
// and rules unreachable from every root functor, positioned on the
// rule name. Both are warnings — a dead rule is legal, just inert.
var DeadRule = &Analyzer{
	Name: "deadrule",
	Doc:  "report rules that can never fire and rules unreachable from any root functor",
	Run: func(pass *Pass) error {
		f := pass.ProgramFacts()
		byName := map[string]*yatl.Rule{}
		for _, r := range pass.Prog.Rules {
			byName[r.Name] = r
		}
		for _, name := range f.NeverFire {
			r := byName[name]
			if r == nil {
				continue
			}
			pos := r.Pos
			if i := engine.DeadPredIndex(r); i >= 0 {
				pos = r.Preds[i].Pos
			}
			pass.Reportf(pos, SeverityWarning,
				"rule %s can never fire: this predicate is always false", name)
		}
		for _, name := range f.Unreachable {
			r := byName[name]
			if r == nil {
				continue
			}
			pass.Reportf(r.Pos, SeverityWarning,
				"rule %s is unreachable: no root functor demands its outputs", name)
		}
		return nil
	},
}
