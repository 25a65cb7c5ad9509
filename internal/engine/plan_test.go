package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/workload"
)

// canonBindings renders a match list for comparison: per binding, the
// variables in name order with each value's kind and canonical key,
// the list in match order.
func canonBindings(bs []Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var sb strings.Builder
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s:%s;", v, b[v].Kind(), displayKey(b[v]))
		}
		out[i] = sb.String()
	}
	return out
}

// planGen generates seeded patterns and trees for the plan ≡ reference
// differential test; made counts what it generated, by trap.
type planGen struct {
	*rand.Rand
	made map[string]int
	// vars is the variable pool: a small one, so that a pattern
	// repeats variables across edges.
	vars []string
	// odmg reports that the matcher has the ODMG model, so pattern
	// domains and pattern references are checked against it.
	odmg bool
}

var genSymbols = []string{"a", "b", "item", "set", "list", "class", "name"}

func (g *planGen) atom() tree.Value {
	switch g.Intn(9) {
	case 0, 1, 2:
		return tree.Symbol(genSymbols[g.Intn(len(genSymbols))])
	case 3, 4:
		return tree.String([]string{"x", "VW", "a b", `q"`}[g.Intn(4)])
	case 5:
		return tree.Int(int64(g.Intn(3)))
	case 6:
		return tree.Float([]float64{1, 0.5, 0, math.Copysign(0, -1)}[g.Intn(4)])
	case 7:
		return tree.Bool(g.Intn(2) == 0)
	}
	// Reference leaves: plain names and Skolem names of a few functors.
	switch g.Intn(3) {
	case 0:
		return tree.Ref{Name: tree.PlainName([]string{"s1", "s2"}[g.Intn(2)])}
	case 1:
		return tree.Ref{Name: tree.SkolemName("Psup", tree.String([]string{"x", "VW"}[g.Intn(2)]))}
	}
	return tree.Ref{Name: tree.SkolemName([]string{"Psup", "Pcar"}[g.Intn(2)], tree.Int(int64(g.Intn(2))), tree.String("x"))}
}

// tree generates a random ground tree: small fan-out, labels from a
// small alphabet, so that siblings often look alike.
func (g *planGen) tree(depth int) *tree.Node {
	label := g.atom()
	if _, ref := label.(tree.Ref); ref || depth == 0 || g.Intn(4) == 0 {
		return tree.New(label)
	}
	n := tree.New(tree.Symbol(genSymbols[g.Intn(len(genSymbols))]))
	if g.Intn(4) == 0 {
		// Values Equal but displayed apart: which of two agreeing
		// bindings a merge keeps shows.
		g.made["0.0 beside -0.0"]++
		zero, negZero := tree.FloatLeaf(0), tree.FloatLeaf(math.Copysign(0, -1))
		if g.Intn(2) == 0 {
			zero, negZero = negZero, zero
		}
		return n.Add(tree.Sym("z", zero), tree.Sym("z", negZero), tree.Sym("z", zero.Clone()))
	}
	for i, k := 0, g.Intn(5); i < k; i++ {
		if i > 0 && g.Intn(3) == 0 {
			n.Add(n.Children[i-1].Clone()) // repeated siblings feed stars
			continue
		}
		n.Add(g.tree(depth - 1))
	}
	return n
}

func (g *planGen) varName() string { return g.vars[g.Intn(len(g.vars))] }

// pattern derives a pattern from tree n, so that most patterns match
// and some do not: labels become constants or variables (with a
// domain), runs of children become star-like edges over a pattern of
// their first child, and here and there a constant is replaced.
func (g *planGen) pattern(n *tree.Node) *pattern.PTree {
	pt := &pattern.PTree{Label: g.label(n)}
	if _, ok := pt.Label.(pattern.PatRef); ok {
		return pt
	}
	if _, ok := pt.Label.(pattern.Var); ok {
		if len(n.Children) == 0 || g.Intn(3) == 0 {
			g.made["leaf variable"]++
			return pt
		}
		g.made["inner variable"]++
	}
	kids := n.Children
	for i := 0; i < len(kids); {
		switch g.Intn(12) {
		case 0, 1, 2, 3:
			// A star-like edge over a run of children.
			run := len(kids) - i
			if g.Intn(2) == 0 {
				run = 1 + g.Intn(run)
			}
			var sub *pattern.PTree
			if g.Intn(3) == 0 {
				sub = pattern.NewVar(g.varName(), pattern.AnyDomain)
			} else {
				sub = g.pattern(kids[i])
			}
			switch g.Intn(4) {
			case 0:
				g.made["star edge"]++
				pt.Edges = append(pt.Edges, pattern.Star(sub))
			case 1:
				g.made["group edge"]++
				pt.Edges = append(pt.Edges, pattern.Group(sub))
			case 2:
				g.made["ordered edge"]++
				pt.Edges = append(pt.Edges, pattern.Ordered(sub, g.varName()))
			default:
				g.made["index edge"]++
				pt.Edges = append(pt.Edges, pattern.Index(g.varName(), sub))
			}
			i += run
		case 4:
			if g.Intn(2) == 0 {
				// An edge too many or too few: no match.
				g.made["structural mismatch"]++
				i++
				continue
			}
			fallthrough
		default:
			g.made["one edge"]++
			pt.Edges = append(pt.Edges, pattern.One(g.pattern(kids[i])))
			i++
		}
	}
	return pt
}

func (g *planGen) label(n *tree.Node) pattern.Label {
	if name, ok := n.RefName(); ok && g.Intn(3) == 0 {
		g.made["&P(args)"]++
		functor := name.Functor
		if g.Intn(5) == 0 {
			functor = "Pcar"
		}
		var args []pattern.Arg
		for _, a := range name.Args {
			if g.Intn(3) == 0 {
				args = append(args, pattern.ConstArg(a))
			} else {
				args = append(args, pattern.VarArg(g.varName()))
			}
		}
		return pattern.PatRef{Name: functor, Args: args, Ref: true}
	}
	switch g.Intn(20) {
	case 0:
		g.made["^P"]++
		return pattern.PatRef{Name: []string{"Ptype", "Pclass", "Pnone"}[g.Intn(3)]}
	case 1, 2, 3, 4, 5, 6:
		return pattern.Var{Name: g.varName(), Domain: g.domain(n)}
	case 7:
		g.made["replaced constant"]++
		return pattern.Const{Value: g.atom()}
	}
	return pattern.Const{Value: n.Label}
}

func (g *planGen) domain(n *tree.Node) pattern.Domain {
	switch g.Intn(6) {
	case 0:
		g.made["kind domain"]++
		return pattern.KindDomain([]tree.Kind{n.Label.Kind(), tree.KindString, tree.KindInt}[g.Intn(3)])
	case 1:
		g.made["symbol domain"]++
		return pattern.SymbolDomain(genSymbols[g.Intn(len(genSymbols))], genSymbols[g.Intn(len(genSymbols))])
	case 2:
		g.made["pattern domain"]++
		if g.Intn(3) == 0 {
			return pattern.RefDomain([]string{"Pclass", "Pnone"}[g.Intn(2)])
		}
		return pattern.PatternDomain([]string{"Ptype", "Pclass", "Pnone"}[g.Intn(3)])
	}
	return pattern.AnyDomain
}

// mentions counts the occurrences of variable v in pt.
func mentions(pt *pattern.PTree, v string) int {
	n := 0
	pt.Walk(func(p *pattern.PTree) bool {
		switch l := p.Label.(type) {
		case pattern.Var:
			if l.Name == v {
				n++
			}
		case pattern.PatRef:
			for _, a := range l.Args {
				if a.IsVar && a.Var == v {
					n++
				}
			}
		}
		for _, e := range p.Edges {
			if e.Index == v {
				n++
			}
		}
		return true
	})
	return n
}

// inputs generates one matcher input: a store — a workload store, an
// ODMG one (then the matcher gets the ODMG model), or random trees —
// and the trees to match, its entries and some of their subtrees.
func (g *planGen) inputs() (*tree.Store, []*tree.Node) {
	var store *tree.Store
	switch g.Intn(4) {
	case 0:
		store = workload.BrochureStore(1+g.Intn(3), 1+g.Intn(3), 2+g.Intn(4), uint64(g.Int63()))
	case 1:
		g.odmg = true
		store = workload.ODMGStore(1+g.Intn(3), 1+g.Intn(3), 1+g.Intn(3), uint64(g.Int63()))
	default:
		store = tree.NewStore()
		for i, k := 0, 1+g.Intn(4); i < k; i++ {
			store.Put(tree.PlainName(fmt.Sprintf("t%d", i)), g.tree(3))
		}
	}
	var trees []*tree.Node
	for _, e := range store.Entries() {
		trees = append(trees, e.Tree)
		// Subtrees too: patterns of a part of an entry.
		e.Tree.Walk(func(n *tree.Node) bool {
			if len(n.Children) > 0 && g.Intn(4) == 0 {
				trees = append(trees, n)
			}
			return true
		})
	}
	return store, trees
}

// checkPlanSeed matches generated patterns against generated trees with
// the plan and with the reference matcher; mutate, when non-nil, is
// applied to every compiled plan first. It returns how many pairs it
// compared and a description of the first difference.
func checkPlanSeed(seed int64, made map[string]int, mutate func(*PatternPlan)) (pairs int, diff string) {
	g := &planGen{Rand: rand.New(rand.NewSource(seed)), made: made, vars: []string{"X", "Y", "Z", "W"}}
	store, trees := g.inputs()
	var model *pattern.Model
	if g.odmg {
		model = pattern.ODMGModel()
	}
	plan := &Matcher{Store: store, Model: model}
	ref := &refMatcher{Store: store, Model: model}
	for i := 0; i < 16; i++ {
		from := trees[g.Intn(len(trees))]
		on := from
		if g.Intn(3) == 0 {
			on = trees[g.Intn(len(trees))]
		}
		pt := g.pattern(from)
		for _, v := range g.vars {
			if mentions(pt, v) > 1 {
				made["repeated variable"]++
				break
			}
		}
		pl := CompilePattern(pt)
		if mutate != nil {
			mutate(pl)
		}
		got, want := canonBindings(plan.Match(nil, pl, on)), canonBindings(ref.MatchTree(pt, on))
		pairs++
		switch {
		case len(want) > 1:
			made["several bindings"]++
		case len(want) == 1:
			made["one binding"]++
		default:
			made["no match"]++
		}
		if !slices.Equal(got, want) && diff == "" {
			diff = fmt.Sprintf("pattern %s\non tree %s\nplan      %q\nreference %q", pt, on, got, want)
		}
	}
	return pairs, diff
}

// The differential test of the slot-compiled plans: over seeded
// patterns — one, star, group, ordered and index edges, repeated
// variables, kind, symbol, pattern and reference domains, &P(args),
// ^P, leaf and inner variables — and trees from the workload
// generators and of random shapes, the plan matcher returns the
// reference matcher's binding list, in order, once materialized.
func TestPlanMatchesReference(t *testing.T) {
	first, seeds := int64(1), int64(1000)
	if os.Getenv("YAT_SOAK") == "1" {
		seeds = 10000
	}
	if s := os.Getenv("YAT_PLAN_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	made := map[string]int{}
	pairs := 0
	for seed := first; seed < first+seeds; seed++ {
		n, diff := checkPlanSeed(seed, made, nil)
		pairs += n
		if diff != "" {
			t.Fatalf("seed %d: plan and reference matcher differ:\n%s\nrerun with YAT_PLAN_SEED=%d go test ./internal/engine -run TestPlanMatchesReference",
				seed, diff, seed)
		}
	}
	if seeds == 1 {
		return
	}
	// Not vacuous: every trap was generated, and matches were found with
	// one and with several bindings.
	for _, trap := range []string{
		"one edge", "star edge", "group edge", "ordered edge", "index edge",
		"repeated variable", "kind domain", "symbol domain", "pattern domain",
		"&P(args)", "^P", "leaf variable", "inner variable", "replaced constant",
		"structural mismatch", "0.0 beside -0.0", "one binding", "several bindings", "no match",
	} {
		if int64(made[trap]) < seeds/10 {
			t.Errorf("trap %q generated %d times in %d seeds, want ≥ %d", trap, made[trap], seeds, seeds/10)
		}
	}
	t.Logf("%d pattern/tree pairs over %d seeds; traps %v", pairs, seeds, made)
}

// TestPlanMutationDetected proves the oracle can fail: a plan whose
// first two slots are swapped materializes values under each other's
// variable, and the comparison of TestPlanMatchesReference catches it.
func TestPlanMutationDetected(t *testing.T) {
	swap := func(pl *PatternPlan) {
		if len(pl.vars) >= 2 {
			pl.vars[0], pl.vars[1] = pl.vars[1], pl.vars[0]
		}
	}
	caught := 0
	for seed := int64(1); seed <= 200; seed++ {
		if _, diff := checkPlanSeed(seed, map[string]int{}, swap); diff != "" {
			caught++
		}
	}
	if caught < 20 {
		t.Errorf("a swapped slot was caught on %d of 200 seeds, want ≥ 20", caught)
	}
	t.Logf("a swapped slot was caught on %d of 200 seeds", caught)
}
