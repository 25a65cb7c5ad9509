package federate

import (
	"fmt"

	"yat/internal/compose"
	"yat/internal/engine"
	"yat/internal/trace"
	"yat/internal/yatl"
)

// ShardPlan is one child's share of a sharded program: the functor
// groups it owns and the closed sub-program that materializes them.
type ShardPlan struct {
	// Index and Total place the shard in the plan (0-based).
	Index, Total int
	// Functors are the owned functor groups, in program declaration
	// order. The parent routes asks for these functors here.
	Functors []string
	// Prog is the shard's closed sub-program: the slice of the parent
	// program whose construct set covers the owned functors (closed
	// under head dereferences) plus the support rules that feed them.
	// Run demand-driven with the owned functors requested, its outputs
	// for those groups are byte-identical to the full program's — the
	// slice-soundness property ComputeSlice pins.
	Prog *yatl.Program
}

// PlanShards splits a program across n children by functor group:
// groups are assigned round-robin in declaration order, and each
// shard's program is the ComputeSlice-derived closed sub-program for
// its groups. Shard-by-functor-group (rather than hashing Skolem
// identities) keeps whole groups — and the §4.2 ordering semantics
// within them — on one child, so a shard's answers for its groups
// need no cross-shard reconciliation. n is clamped to [1, #groups]:
// no shard is ever empty.
func PlanShards(prog *yatl.Program, n int) []ShardPlan {
	var groups []string
	seen := map[string]bool{}
	for _, r := range prog.Rules {
		if r.Exception {
			continue
		}
		if f := r.Head.Functor; !seen[f] {
			seen[f] = true
			groups = append(groups, f)
		}
	}
	if n < 1 {
		n = 1
	}
	if len(groups) > 0 && n > len(groups) {
		n = len(groups)
	}
	if n <= 1 {
		return []ShardPlan{{Index: 0, Total: 1, Functors: groups, Prog: prog}}
	}
	owned := make([][]string, n)
	for i, f := range groups {
		owned[i%n] = append(owned[i%n], f)
	}
	plans := make([]ShardPlan, n)
	for i := range plans {
		plans[i] = ShardPlan{Index: i, Total: n, Functors: owned[i], Prog: subProgram(prog, engine.ComputeSlice(prog, owned[i]...))}
	}
	return plans
}

// subProgram restricts a program to a slice's rules, preserving
// declaration order, models and order statements. Exception rules are
// never part of a slice: the §3.5 "everything converted" check is only
// meaningful for full runs. The slice-soundness argument (the construct
// rules' outputs are byte-identical to a full run's) makes the
// restriction a closed program in its own right: a child's whole world.
func subProgram(prog *yatl.Program, sl *engine.Slice) *yatl.Program {
	rules := make([]*yatl.Rule, 0, sl.Rules())
	for _, r := range prog.Rules {
		if !r.Exception && sl.Includes(r.Name) {
			rules = append(rules, r)
		}
	}
	return &yatl.Program{Name: prog.Name, Rules: rules, Models: prog.Models, Orders: prog.Orders}
}

// FusePipeline folds a cross-mediator pipeline prg1 : M1↦M2, prg2 :
// M2↦M3, ... into a single one-step program with §4.3 composition,
// left to right. The fused program converts the sources directly —
// the intermediate models are never materialized, on the wire or off
// it. Each fusion is announced as a KindComposeFused event on the
// sink (nil is fine), which is how tests and EXPLAIN prove the
// intermediate model never existed.
func FusePipeline(progs []*yatl.Program, sink trace.Sink) (*yatl.Program, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("federate: empty pipeline")
	}
	fused := progs[0]
	for _, next := range progs[1:] {
		out, err := compose.Compose(fused, next)
		if err != nil {
			return nil, fmt.Errorf("federate: fusing %s into %s: %w", next.Name, fused.Name, err)
		}
		if sink != nil {
			sink.Emit(trace.Event{
				Kind:   trace.KindComposeFused,
				Phase:  trace.PhaseFederate,
				Detail: fmt.Sprintf("%s ∘ %s -> %s", fused.Name, next.Name, out.Name),
				Count:  len(out.Rules),
			})
		}
		fused = out
	}
	return fused, nil
}
