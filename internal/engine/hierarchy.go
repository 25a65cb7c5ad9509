package engine

import (
	"cmp"
	"slices"
	"sort"

	"yat/internal/pattern"
	"yat/internal/yatl"
)

// hierarchy organizes the rules of a program as the interpreter does
// in §4.2: rules are grouped by Skolem functor; within a group, rules
// whose input models are in a subtype (instantiation) relation
// conflict, and the more specific one is applied first — when it
// matches an input, the less specific ones are not applied to that
// input. Explicit `order A before B` statements add user-enforced
// edges. Rules are named by their position in the program.
type hierarchy struct {
	// functors lists the functors of the non-exception rules in
	// first-occurrence order; groups[i] lists functors[i]'s rules, most
	// specific first (ties broken by declaration order).
	functors []string
	groups   [][]int
	// blocks[p] lists the less specific rules rule p shadows when it
	// matches; blocks is nil when no rule shadows another.
	blocks [][]int
	// exceptions are the exception rules of the program.
	exceptions []int
}

// buildHierarchy computes the rule hierarchy. model provides the
// pattern definitions used to resolve pattern-domain variables during
// specificity comparison (may be nil).
func buildHierarchy(prog *yatl.Program, model *pattern.Model) hierarchy {
	h := hierarchy{functors: make([]string, 0, len(prog.Rules)), groups: make([][]int, 0, len(prog.Rules))}
	index := map[string]int{}
	for p, r := range prog.Rules {
		if r.Exception {
			h.exceptions = append(h.exceptions, p)
			continue
		}
		i, ok := index[r.Head.Functor]
		if !ok {
			i, index[r.Head.Functor] = len(h.functors), len(h.functors)
			h.functors, h.groups = append(h.functors, r.Head.Functor), append(h.groups, nil)
		}
		h.groups[i] = append(h.groups[i], p)
	}

	// Explicit user orderings (apply regardless of functor grouping).
	userBefore := map[[2]string]bool{}
	for _, o := range prog.Orders {
		userBefore[[2]string{o.Before, o.After}] = true
	}

	for _, group := range h.groups {
		// strict(a, b): rule a is strictly more specific than b. Two
		// rules conflict only when they code for the same set of
		// output patterns: same Skolem functor (the grouping) and the
		// same argument shape — an identity-keyed rule (argument =
		// body pattern variable, like Web1–Web6) never shadows a
		// data-keyed one (argument = data variable, like the composed
		// HtmlPage(SN)).
		strict := func(p, q int) bool {
			a, b := prog.Rules[p], prog.Rules[q]
			if userBefore[[2]string{a.Name, b.Name}] {
				return true
			}
			if userBefore[[2]string{b.Name, a.Name}] {
				return false
			}
			if argShape(a) != argShape(b) {
				return false
			}
			ab := bodyInstanceOf(a, b, model)
			ba := bodyInstanceOf(b, a, model)
			return ab && !ba
		}
		for _, a := range group {
			for _, b := range group {
				if a != b && strict(a, b) {
					if h.blocks == nil {
						h.blocks = make([][]int, len(prog.Rules))
					}
					h.blocks[a] = append(h.blocks[a], b)
				}
			}
		}
		// Order the group: a before b when a is strictly more
		// specific; ties by declaration order. Topological by
		// counting dominators is enough because strictness is a
		// strict partial order.
		sort.SliceStable(group, func(i, j int) bool {
			a, b := group[i], group[j]
			if strict(a, b) {
				return true
			}
			if strict(b, a) {
				return false
			}
			return a < b
		})
	}
	return h
}

// shadows lists the less specific rules rule p shadows when it matches.
func (h *hierarchy) shadows(p int) []int {
	if h.blocks == nil {
		return nil
	}
	return h.blocks[p]
}

// argShape classifies a rule's Skolem key structure: per argument,
// whether it is the input's identity (the body pattern variable), a
// data variable, or a constant. Rules with different shapes mint
// disjoint key spaces and do not conflict.
func argShape(r *yatl.Rule) string {
	identity := map[string]bool{}
	for _, bp := range r.Body {
		identity[bp.Var] = true
	}
	shape := make([]byte, len(r.Head.Args))
	for i, a := range r.Head.Args {
		switch {
		case !a.IsVar:
			shape[i] = 'c'
		case identity[a.Var]:
			shape[i] = 'i'
		default:
			shape[i] = 'd'
		}
	}
	return string(shape)
}

// bodyInstanceOf reports whether rule a's input model is an instance
// of rule b's (a is at least as specific as b). Only rules with the
// same body-pattern count are comparable; each body tree of a must
// instantiate the corresponding tree of b under the loose rule-body
// relation.
func bodyInstanceOf(a, b *yatl.Rule, model *pattern.Model) bool {
	if len(a.Body) != len(b.Body) {
		return false
	}
	for i := range a.Body {
		if !pattern.TreeInstanceOfLoose(model, a.Body[i].Tree, model, b.Body[i].Tree) {
			return false
		}
	}
	return true
}

// Hierarchy is the exported view of a program's rule hierarchy, used
// by the compose package (symbolic evaluation follows the same
// most-specific-first dispatch) and by the yatviz tool.
type Hierarchy struct {
	// Groups lists the non-exception rules per Skolem functor, most
	// specific first.
	Groups map[string][]*yatl.Rule
	// FunctorOrder preserves first-occurrence order of functors.
	FunctorOrder []string
	// Blocks maps a rule name to the less specific rules it shadows.
	Blocks map[string][]string
	// Exceptions are the program's exception rules.
	Exceptions []*yatl.Rule
	// Conflicts lists the (specific, general) rule pairs in conflict
	// per the paper's definition — same Skolem functor and a subtype
	// relation between input models — sorted.
	Conflicts [][2]string
}

// BuildHierarchy computes the §4.2 rule hierarchy of a program. The
// model resolves pattern-domain variables during the specificity
// comparison and may be nil.
func BuildHierarchy(prog *yatl.Program, model *pattern.Model) *Hierarchy {
	h := buildHierarchy(prog, model)
	out := &Hierarchy{Groups: map[string][]*yatl.Rule{}, FunctorOrder: h.functors, Blocks: map[string][]string{}}
	for i, f := range h.functors {
		for _, p := range h.groups[i] {
			r := prog.Rules[p]
			out.Groups[f] = append(out.Groups[f], r)
			for _, q := range h.shadows(p) {
				out.Blocks[r.Name] = append(out.Blocks[r.Name], prog.Rules[q].Name)
				out.Conflicts = append(out.Conflicts, [2]string{r.Name, prog.Rules[q].Name})
			}
		}
	}
	for _, p := range h.exceptions {
		out.Exceptions = append(out.Exceptions, prog.Rules[p])
	}
	slices.SortFunc(out.Conflicts, func(a, b [2]string) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}
