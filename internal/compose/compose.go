package compose

import (
	"fmt"
	"sort"
	"strings"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/typing"
	"yat/internal/yatl"
)

// Compose fuses two conversion programs prg1 : M1 ↦ M2 and
// prg2 : M2' ↦ M3 into a single program M1 ↦ M3 (§4.3). After the
// compatibility check, every rule of prg2 is partially evaluated
// against the head patterns of prg1's rules; the fused rules convert
// the sources directly, never materializing the intermediate model.
// References to intermediate identities splice their Skolem
// arguments (HtmlPage(Pcar(Pbr)) becomes HtmlPage(Pbr)), so the
// composed outputs are keyed directly by source values.
func Compose(prg1, prg2 *yatl.Program) (*yatl.Program, error) {
	reg := engine.NewRegistry()
	if err := typing.Compatible(prg1, prg2, reg); err != nil {
		return nil, err
	}
	return fuse(prg1, prg2, reg)
}

// fuse is Compose past its compatibility check.
func fuse(prg1, prg2 *yatl.Program, reg *engine.Registry) (*yatl.Program, error) {
	// Producers are annotated with their inferred variable domains so
	// the second program's pattern-domain checks (P2 : Ptype) see the
	// real types of the intermediate values.
	producers := map[string][]*yatl.Rule{}
	var annotated []*yatl.Rule
	for _, r := range prg1.Rules {
		if r.Exception || r.Head.Tree == nil {
			continue
		}
		ar, err := typing.AnnotateRule(r, reg)
		if err != nil {
			return nil, fmt.Errorf("compose: annotating %s: %w", r.Name, err)
		}
		producers[ar.Head.Functor] = append(producers[ar.Head.Functor], ar)
		annotated = append(annotated, ar)
	}

	// The evaluator resolves the intermediate model through prg1's
	// inferred output signature (e.g. the Psup references inside the
	// Pcar values).
	var inter *pattern.Model
	if sig1, err := typing.Infer(prg1, reg); err == nil {
		inter = sig1.Out
	}

	// The evaluator runs prg2's rules; prg1's functors resolve
	// through producers.
	prg2ForEval := prg2.Clone()
	for _, m := range prg1.Models {
		found := false
		for _, m2 := range prg2ForEval.Models {
			if m2.Name == m.Name {
				found = true
			}
		}
		if !found {
			prg2ForEval.Models = append(prg2ForEval.Models, &yatl.ModelDecl{Name: m.Name, Model: m.Model.Clone()})
		}
	}
	ev := newEvaluator(prg2ForEval, producers, inter, reg)

	out := &yatl.Program{Name: prg1.Name + "_" + prg2.Name}
	out.Models = prg2ForEval.Models

	var failures []string
	for _, r1 := range annotated {
		rules, err := ev.composeAgainst(r1)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r1.Name, err))
			continue
		}
		out.Rules = append(out.Rules, rules...)
	}
	if len(out.Rules) == 0 {
		if len(failures) > 0 {
			return nil, fmt.Errorf("compose: no composed rules derived:\n  %s", strings.Join(failures, "\n  "))
		}
		return nil, fmt.Errorf("compose: no rule of %s applies to the outputs of %s", prg2.Name, prg1.Name)
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("compose: some rules could not be composed:\n  %s", strings.Join(failures, "\n  "))
	}
	return out, nil
}

// composeAgainst derives the composed rules for one producer rule of
// the first program: prg2's functor groups are applied symbolically
// to the producer's head tree; the resulting rules inherit the
// producer's body, predicates and lets.
func (ev *evaluator) composeAgainst(r1 *yatl.Rule) ([]*yatl.Rule, error) {
	if headHasDeref(r1) {
		return nil, fmt.Errorf("producer head dereferences a Skolem; composition requires reference-only heads")
	}
	scope := map[string]bool{}
	for _, v := range r1.Vars() {
		scope[v] = true
	}

	var derived []*yatl.Rule
	blocked := map[string]bool{}
	for _, functor := range ev.functorOrder {
		for _, rule := range ev.groups[functor] {
			if blocked[rule.Name] || rule.Exception {
				continue
			}
			if len(rule.Body) != 1 {
				return nil, fmt.Errorf("rule %s has %d body patterns; composition supports single-pattern rules", rule.Name, len(rule.Body))
			}
			// Rename prg2's variables away from the producer's scope.
			d := newDerivation()
			for v := range scope {
				d.used[v] = true
			}
			ren := map[string]string{}
			for _, v := range rule.Vars() {
				ren[v] = ev.fresh(v, d.used)
			}
			r2 := rule.RenameVars(ren)

			group := ev.match.match(r2.Body[0].Tree, r1.Head.Tree)
			if len(group) == 0 {
				continue
			}
			for _, name := range ev.blocks[rule.Name] {
				blocked[name] = true
			}
			// The body variable of the prg2 rule binds the identity
			// of the intermediate object: the Skolem reference
			// F1(args), whose arguments splice into composed keys.
			oidFrag := newOIDFragment(r1)
			for i := range group {
				nb := group[i].clone()
				nb[r2.Body[0].Var] = symVal{frag: oidFrag}
				group[i] = nb
			}
			head, args, err := ev.applyRuleDepth(r2, group, d, 0)
			if err != nil {
				return nil, fmt.Errorf("composing %s with %s: %w", r1.Name, rule.Name, err)
			}
			if head == nil {
				continue
			}
			composed := &yatl.Rule{
				Name:  r1.Name + "_" + rule.Name,
				Head:  yatl.Head{Functor: r2.Head.Functor, Args: args, Tree: head},
				Body:  cloneBodies(r1.Body),
				Preds: append(clonePreds(r1.Preds), append(substPreds(r2.Preds, group, d), d.preds...)...),
				Lets:  append(cloneLets(r1.Lets), d.lets...),
			}
			// Residual body patterns produced during static inlining
			// refer to intermediate values and are dropped: the
			// composed program never materializes them. Out-of-scope
			// variables betray an inlining that leaked intermediate
			// state.
			if err := checkScope(composed); err != nil {
				return nil, fmt.Errorf("composing %s with %s: %w", r1.Name, rule.Name, err)
			}
			derived = append(derived, composed)
		}
	}
	return derived, nil
}

// newOIDFragment wraps a producer rule's head identity F(args) as a
// reference fragment.
func newOIDFragment(r1 *yatl.Rule) *pattern.PTree {
	args := append([]pattern.Arg(nil), r1.Head.Args...)
	return pattern.NewPatRef(r1.Head.Functor, true, args...)
}

func headHasDeref(r *yatl.Rule) bool {
	for _, ref := range r.Head.Tree.PatternRefs() {
		if !ref.Ref {
			return true
		}
	}
	return false
}

// checkScope verifies that every variable used by the composed rule
// is bound by its body patterns or let clauses.
func checkScope(r *yatl.Rule) error {
	bound := map[string]bool{}
	for _, bp := range r.Body {
		bound[bp.Var] = true
		for _, v := range bp.Tree.Vars() {
			bound[v] = true
		}
	}
	for _, l := range r.Lets {
		bound[l.Var] = true
	}
	var free []string
	seen := map[string]bool{}
	for _, v := range r.Vars() {
		if !bound[v] && !seen[v] {
			seen[v] = true
			free = append(free, v)
		}
	}
	if len(free) > 0 {
		sort.Strings(free)
		return fmt.Errorf("composed rule %s has unbound variables %s (intermediate state leaked)",
			r.Name, strings.Join(free, ", "))
	}
	return nil
}

func cloneBodies(in []yatl.BodyPattern) []yatl.BodyPattern {
	out := make([]yatl.BodyPattern, len(in))
	for i, bp := range in {
		out[i] = yatl.BodyPattern{Var: bp.Var, Domain: bp.Domain, Tree: bp.Tree.Clone()}
	}
	return out
}

func clonePreds(in []yatl.Pred) []yatl.Pred {
	out := make([]yatl.Pred, len(in))
	copy(out, in)
	for i := range out {
		out[i].Args = append([]yatl.Operand(nil), in[i].Args...)
	}
	return out
}

func cloneLets(in []yatl.Let) []yatl.Let {
	out := make([]yatl.Let, len(in))
	for i, l := range in {
		out[i] = yatl.Let{Var: l.Var, Func: l.Func, Args: append([]yatl.Operand(nil), l.Args...)}
	}
	return out
}
