// The optimizer's analysis, as the framework sees it: DeadRule reports
// what engine.AnalyzeProgram proves dead, and ReportFacts shapes the
// same analysis for `yatcheck -facts`. Symbol interning, the dispatch
// index and the strata are facts of that one analysis, not passes of
// their own: nothing here has a diagnostic to give about them.
package analysis

import (
	"encoding/json"
	"fmt"

	"yat/internal/engine"
	"yat/internal/yatl"
)

// ProgramFacts returns the optimizer's analysis of the pass's program
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

// FactsReport is the JSON document behind `yatcheck -facts`: every
// fact the optimizer passes compute, in a stable, renderable shape.
type FactsReport struct {
	Program       string     `json:"program"`
	Symbols       int        `json:"symbols"`
	SymbolNames   []string   `json:"symbol_names"`
	DispatchRoots int        `json:"dispatch_roots"`
	NeverFire     []string   `json:"never_fire,omitempty"`
	Unreachable   []string   `json:"unreachable,omitempty"`
	Strata        [][]string `json:"strata"`
}

// ReportFacts computes the optimizer facts for a program and shapes
// them for reporting. Deterministic: two calls over the same source
// render byte-identical JSON.
func ReportFacts(prog *yatl.Program) *FactsReport {
	f := engine.AnalyzeProgram(prog)
	rep := &FactsReport{
		Program:     prog.Name,
		Symbols:     f.Syms.Len(),
		SymbolNames: f.Syms.Names(),
		NeverFire:   f.NeverFire,
		Unreachable: f.Unreachable,
		Strata:      f.Strata,
	}
	if f.Dispatch != nil {
		rep.DispatchRoots = f.Dispatch.Roots()
	}
	return rep
}

// JSON renders the report as indented JSON.
func (r *FactsReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report as the one-line summary EXPLAIN uses.
func (r *FactsReport) String() string {
	return fmt.Sprintf("syms=%d dispatch-roots=%d dead-rules=%d unreachable=%d strata=%d",
		r.Symbols, r.DispatchRoots, len(r.NeverFire), len(r.Unreachable), len(r.Strata))
}
