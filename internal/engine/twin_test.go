package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"yat/internal/pattern"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// twinGen builds seeded programs whose rules come in groups over one
// generated body: the first rule of a group has the body as generated,
// a twin renames every variable of it, and a near-twin differs from it
// in exactly one thing the plan compares. The rules' heads, functors
// and orderings are generated too. made counts what it built, by case.
type twinGen struct {
	*planGen
	prog *yatl.Program
	// family numbers, per rule, the group of rules over one body; near
	// marks the near-twins.
	family []int
	near   []bool
}

// slotVars returns the variables of pt that get a slot when pt is
// compiled as a body — label variables, &P argument variables and index
// variables — in first-occurrence order.
func slotVars(pt *pattern.PTree) []string {
	var out []string
	add := func(v string) {
		if v != "" && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	var walk func(p *pattern.PTree)
	walk = func(p *pattern.PTree) {
		switch l := p.Label.(type) {
		case pattern.Var:
			add(l.Name)
		case pattern.PatRef:
			for _, a := range l.Args {
				if a.IsVar {
					add(a.Var)
				}
			}
		}
		for _, e := range p.Edges {
			walk(e.To)
			if e.Occ == pattern.OccIndex {
				add(e.Index)
			}
		}
	}
	walk(pt)
	return out
}

// renamed returns a copy of pt with every variable name suffixed.
func renamed(pt *pattern.PTree, suffix string) *pattern.PTree {
	c := pt.Clone()
	c.Walk(func(p *pattern.PTree) bool {
		switch l := p.Label.(type) {
		case pattern.Var:
			l.Name += suffix
			p.Label = l
		case pattern.PatRef:
			args := slices.Clone(l.Args)
			for i := range args {
				if args[i].IsVar {
					args[i].Var += suffix
				}
			}
			l.Args = args
			p.Label = l
		}
		for i := range p.Edges {
			e := &p.Edges[i]
			if e.Index != "" {
				e.Index += suffix
			}
			for j := range e.OrderBy {
				e.OrderBy[j] += suffix
			}
		}
		return true
	})
	return c
}

// nearTwin returns a copy of body that differs from it in exactly one
// thing the plan compares — of the kinds body offers, drawn alike, the
// body domain as likely as each — and names that thing.
func (g *twinGen) nearTwin(body yatl.BodyPattern) (yatl.BodyPattern, string) {
	c := body
	c.Tree = body.Tree.Clone()
	var kinds []string
	for _, kind := range []string{"constant", "variable domain", "body-variable slot", "edge kind", "index variable", "^/& argument"} {
		if len(g.sites(c, kind)) > 0 {
			kinds = append(kinds, kind)
		}
	}
	kind := "body domain"
	if n := len(kinds); n > 0 && g.Intn(n+1) < n {
		kind = kinds[g.Intn(n)]
	}
	sites := g.sites(c, kind)
	p := sites[g.Intn(len(sites))]
	switch kind {
	case "constant":
		other := tree.Value(tree.String("near-twin"))
		if sameConst(p.Label.(pattern.Const).Value, other) {
			other = tree.Symbol("near-twin")
		}
		p.Label = pattern.Const{Value: other}
	case "variable domain":
		v := p.Label.(pattern.Var)
		if v.Domain.IsAny() {
			v.Domain = []pattern.Domain{pattern.KindDomain(tree.KindString), pattern.PatternDomain("Pclass"),
				pattern.SymbolDomain("class", "set")}[g.Intn(3)]
		} else {
			v.Domain = pattern.AnyDomain
		}
		p.Label = v
	case "body domain":
		if c.Domain == "" {
			c.Domain = []string{"Pclass", "Ptype"}[g.Intn(2)]
		} else {
			c.Domain = ""
		}
	case "body-variable slot":
		vars := slotVars(c.Tree)
		c.Var = vars[g.Intn(len(vars))]
	case "edge kind":
		e := &p.Edges[g.Intn(len(p.Edges))]
		if e.Occ == pattern.OccOne {
			*e = pattern.Star(e.To)
		} else {
			*e = pattern.One(e.To)
		}
	case "index variable":
		for i := range p.Edges {
			if e := &p.Edges[i]; e.Occ == pattern.OccIndex {
				if e.Index != "" {
					e.Index = ""
				} else {
					e.Index = g.varName()
				}
				break
			}
		}
	case "^/& argument":
		ref := p.Label.(pattern.PatRef)
		if len(ref.Args) == 0 {
			ref.Name += "x"
		} else {
			ref.Args = slices.Clone(ref.Args)
			if a := &ref.Args[g.Intn(len(ref.Args))]; a.IsVar {
				*a = pattern.ConstArg(tree.String("near-twin"))
			} else {
				*a = pattern.VarArg(g.varName())
			}
		}
		p.Label = ref
	}
	return c, kind
}

// sites returns the nodes of body's tree a near-twin of the kind can
// change; the root alone for the kinds that change no node, when they
// apply.
func (g *twinGen) sites(body yatl.BodyPattern, kind string) []*pattern.PTree {
	var out []*pattern.PTree
	body.Tree.Walk(func(p *pattern.PTree) bool {
		var ok bool
		switch kind {
		case "constant":
			_, ok = p.Label.(pattern.Const)
		case "variable domain":
			_, ok = p.Label.(pattern.Var)
		case "edge kind":
			ok = len(p.Edges) > 0
		case "index variable":
			ok = slices.ContainsFunc(p.Edges, func(e pattern.Edge) bool { return e.Occ == pattern.OccIndex })
		case "^/& argument":
			_, ok = p.Label.(pattern.PatRef)
		}
		if ok {
			out = append(out, p)
		}
		return true
	})
	if kind == "body domain" || kind == "body-variable slot" && len(slotVars(body.Tree)) > 0 {
		out = append(out, body.Tree)
	}
	return out
}

// rule makes a rule over body with a generated head: functor F, G or H,
// keyed by the matched input and the rule's own constant, building one
// row per binding out of the body's variables, maybe a let's value, and
// maybe a reference that activates a bound value for the next round.
func (g *twinGen) rule(name string, body yatl.BodyPattern) *yatl.Rule {
	functor := []string{"F", "G", "H"}[g.Intn(3)]
	r := &yatl.Rule{Name: name, Body: []yatl.BodyPattern{body}}
	row := pattern.NewSym("row")
	vars := slotVars(body.Tree)
	for i, v := range vars {
		row.Edges = append(row.Edges, pattern.One(pattern.NewSym(fmt.Sprintf("v%d", i), pattern.One(pattern.NewVar(v, pattern.AnyDomain)))))
	}
	if len(vars) > 0 && g.Intn(2) == 0 {
		g.made["let"]++
		let := "L" + name
		r.Lets = append(r.Lets, yatl.Let{Var: let, Func: "data_to_string", Args: []yatl.Operand{{IsVar: true, Var: vars[g.Intn(len(vars))]}}})
		row.Edges = append(row.Edges, pattern.One(pattern.NewSym("let", pattern.One(pattern.NewVar(let, pattern.AnyDomain)))))
	}
	if len(vars) > 0 && g.Intn(3) == 0 {
		g.made["minted activation"]++
		row.Edges = append(row.Edges, pattern.One(pattern.NewSym("next",
			pattern.One(pattern.NewPatRef("M", true, pattern.VarArg(vars[g.Intn(len(vars))]))))))
	}
	r.Head = yatl.Head{Functor: functor, Args: []pattern.Arg{pattern.VarArg(body.Var), pattern.ConstArg(tree.String(name))},
		Tree: pattern.NewSym(name, pattern.Group(row))}
	return r
}

// program generates the program: one to three families of a first rule
// and one to three relatives — twins and near-twins — in a shuffled
// declaration order, with some `order` statements between rules of one
// functor, drawn from one ranking so they never cycle.
func (g *twinGen) program(trees []*tree.Node) {
	g.prog = &yatl.Program{Name: "twins"}
	g.family, g.near = nil, nil
	for f, n := 0, 1+g.Intn(3); f < n; f++ {
		first := yatl.BodyPattern{Var: "I", Tree: g.pattern(trees[g.Intn(len(trees))])}
		if g.Intn(4) == 0 {
			first.Domain = []string{"Pclass", "Ptype"}[g.Intn(2)]
		}
		add := func(body yatl.BodyPattern, near bool) {
			g.prog.Rules = append(g.prog.Rules, g.rule(fmt.Sprintf("R%d", len(g.prog.Rules)), body))
			g.family, g.near = append(g.family, f), append(g.near, near)
		}
		add(first, false)
		for k, m := 0, 1+g.Intn(3); k < m; k++ {
			if g.Intn(2) == 0 {
				near, kind := g.nearTwin(first)
				g.made["near-twin: "+kind]++
				add(near, true)
				continue
			}
			suffix := strconv.Itoa(k + 1)
			add(yatl.BodyPattern{Var: first.Var + suffix, Domain: first.Domain, Tree: renamed(first.Tree, suffix)}, false)
		}
	}
	perm := g.Perm(len(g.prog.Rules))
	rules, family, near := make([]*yatl.Rule, len(perm)), make([]int, len(perm)), make([]bool, len(perm))
	for i, j := range perm {
		rules[i], family[i], near[i] = g.prog.Rules[j], g.family[j], g.near[j]
	}
	g.prog.Rules, g.family, g.near = rules, family, near
	rank := g.Perm(len(rules))
	for i, a := range rules {
		for j, b := range rules {
			if a.Head.Functor == b.Head.Functor && rank[i] < rank[j] && g.Intn(3) == 0 {
				g.prog.Orders = append(g.prog.Orders, yatl.Order{Before: a.Name, After: b.Name})
			}
		}
	}
}

// matchEvents records a run's match events, without their durations,
// and which rules matched something.
type matchEvents struct {
	events  []string
	matched map[string]bool
}

func (m *matchEvents) Emit(e trace.Event) {
	if e.Kind == trace.KindMatch {
		m.events = append(m.events, fmt.Sprintf("%s r%d n%d", e.Rule, e.Round, e.Count))
		m.matched[e.Rule] = m.matched[e.Rule] || e.Count > 0
	}
}

// twinRun is what a run shows of itself: its error, outputs, warnings,
// unconverted inputs, statistics and per-rule match events; and the
// rules that matched something.
func twinRun(prog *yatl.Program, store *tree.Store, sl *Slice) (string, map[string]bool) {
	events := matchEvents{matched: map[string]bool{}}
	var res *Result
	var err error
	if sl == nil {
		res, err = Run(prog, store, WithTrace(&events))
	} else {
		res, err = RunSlice(context.Background(), prog, store, sl, WithTrace(&events))
	}
	if res == nil {
		return fmt.Sprintf("error %v\nmatches %v", err, events.events), events.matched
	}
	return fmt.Sprintf("error %v\n%s\nwarnings %q\nunconverted %v\nstats %+v\nmatches %v",
		err, tree.FormatStore(res.Outputs), res.Warnings, res.Unconverted, res.Stats, events.events), events.matched
}

// twinGroups returns, per rule of prog, the twin group compiling it
// puts the rule in, 0 for none.
func twinGroups(prog *yatl.Program) []int {
	c, _ := Compile(prog)
	out := make([]int, len(prog.Rules))
	for i, rp := range c.plans {
		if rp != nil {
			out[i] = rp.twin
		}
	}
	return out
}

// checkTwinSeed runs one generated program over one generated store,
// and a slice of it, with the twins sharing their matches and with
// every rule matching alone. It returns how the two differ, and what
// the grouping got wrong: a twin matched alone, or a near-twin sharing.
func checkTwinSeed(seed int64, made map[string]int) (diff, grouping string) {
	g := &twinGen{planGen: &planGen{Rand: rand.New(rand.NewSource(seed)), made: made, vars: []string{"X", "Y", "Z", "W"}}}
	store, trees := g.inputs()
	// The ODMG model, beside other stores too: then Pclass and Ptype
	// body domains turn inputs away.
	var model *pattern.Model
	if g.odmg || g.Intn(2) == 0 {
		model = pattern.ODMGModel()
	}
	g.program(trees)
	prog := g.prog
	if model != nil {
		prog.Models = []*yatl.ModelDecl{{Name: "ODMG", Model: model}}
	}
	groups := twinGroups(prog)
	hier := BuildHierarchy(prog, model)
	for i := range prog.Rules {
		for j := range prog.Rules[:i] {
			if g.family[i] != g.family[j] || g.near[i] && g.near[j] {
				continue // apart, or two near-twins that may be alike
			}
			a, b := prog.Rules[j], prog.Rules[i]
			shared := groups[i] != 0 && groups[i] == groups[j]
			twin := !g.near[i] && !g.near[j]
			switch {
			case twin && !shared:
				grouping = fmt.Sprintf("twins %s and %s match alone", a.Name, b.Name)
			case !twin && shared:
				grouping = fmt.Sprintf("near-twins %s and %s share a match:\n%s\n%s", a.Name, b.Name, a.Body[0].Tree, b.Body[0].Tree)
			case twin && a.Head.Functor != b.Head.Functor:
				made["twins across groups"]++
			case twin && len(hier.Blocks[a.Name])+len(hier.Blocks[b.Name]) > 0:
				made["twins in one group, blocking"]++
			case twin:
				made["twins in one group"]++
			default:
				made["near-twins apart"]++
			}
			if twin {
				made["twins shared"]++
			}
		}
	}
	sl := ComputeSlice(prog, []string{"F", "G", "H"}[g.Intn(3)])
	var got, want [2]string
	var matched map[string]bool
	for i, s := range []*Slice{nil, sl} {
		got[i], matched = twinRun(prog, store, s)
		keep := sameBody
		sameBody = func(*bodyPlan, *bodyPlan) bool { return false }
		want[i], _ = twinRun(prog, store, s)
		sameBody = keep
		if i == 0 && strings.HasPrefix(want[0], "error <nil>") {
			made["run ok"]++
		}
	}
	// Not vacuous: a twin copied the frames of a match.
	for i, r := range prog.Rules {
		if groups[i] != 0 && matched[r.Name] {
			made["twin matched"]++
			break
		}
	}
	for i, what := range []string{"run", "slice run"} {
		if got[i] != want[i] {
			return fmt.Sprintf("%s of\n%s\nshared:\n%s\nalone:\n%s", what, formatTwinProgram(prog), got[i], want[i]), grouping
		}
	}
	return "", grouping
}

func formatTwinProgram(prog *yatl.Program) string {
	var sb strings.Builder
	for _, r := range prog.Rules {
		fmt.Fprintf(&sb, "rule %s: %s(%s) from %s:%s = %s\n", r.Name, r.Head.Functor, r.Body[0].Var, r.Body[0].Var, r.Body[0].Domain, r.Body[0].Tree)
	}
	for _, o := range prog.Orders {
		fmt.Fprintf(&sb, "order %s before %s\n", o.Before, o.After)
	}
	return sb.String()
}

// The differential test of twin sharing: over seeded programs of twins
// (the same body, its variables renamed) and near-twins (one constant,
// variable domain, body domain, body-variable slot, edge kind, index
// variable or ^/& argument apart), with generated heads, functors and
// §4.2 orderings, over the plan test's stores, a run and a slice run in
// which twins share their match return what they return with every rule
// matching alone — outputs, warnings, unconverted inputs, statistics
// and per-rule match counts — and the run groups exactly the twins.
func TestTwinSharingMatchesUnshared(t *testing.T) {
	first, seeds := int64(1), int64(1000)
	if os.Getenv("YAT_SOAK") == "1" {
		seeds = 10000
	}
	if s := os.Getenv("YAT_TWIN_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	made := map[string]int{}
	for seed := first; seed < first+seeds; seed++ {
		diff, grouping := checkTwinSeed(seed, made)
		if diff != "" || grouping != "" {
			t.Fatalf("seed %d: %s%s\nrerun with YAT_TWIN_SEED=%d go test ./internal/engine -run TestTwinSharingMatchesUnshared",
				seed, grouping, diff, seed)
		}
	}
	if seeds == 1 {
		return
	}
	// Not vacuous: twins shared within and across §4.2 groups, blocking
	// among them, and near-twins of every kind kept apart.
	for _, c := range []string{
		"twins shared", "near-twins apart", "twins across groups", "twins in one group, blocking",
		"near-twin: constant", "near-twin: variable domain", "near-twin: body domain",
		"near-twin: body-variable slot", "near-twin: edge kind", "near-twin: index variable",
		"near-twin: ^/& argument", "let", "minted activation", "run ok", "twin matched",
	} {
		if int64(made[c]) < seeds/40 {
			t.Errorf("case %q generated %d times in %d seeds, want ≥ %d", c, made[c], seeds, seeds/40)
		}
	}
	t.Logf("%d seeds; cases %v", seeds, made)
}

// TestTwinMutationDetected proves the oracle can fail: a plan
// comparison that ignores variable domains, or body domains, shares
// the match of near-twins that differ only there, and the runs of
// TestTwinSharingMatchesUnshared tell it from matching alone.
func TestTwinMutationDetected(t *testing.T) {
	keep := sameBody
	defer func() { sameBody = keep }()
	for _, tc := range []struct {
		name  string
		strip func(*pnode)
		body  bool
	}{
		{"variable domains ignored", func(p *pnode) { p.dom = nil }, false},
		{"body domains ignored", func(*pnode) {}, true},
	} {
		sameBody = func(a, b *bodyPlan) bool {
			a2, b2 := *a, *b
			a2.root, b2.root = stripped(a.root, tc.strip), stripped(b.root, tc.strip)
			if tc.body {
				a2.domain, b2.domain = "", ""
			}
			return keep(&a2, &b2)
		}
		caught := 0
		for seed := int64(1); seed <= 400; seed++ {
			if diff, _ := checkTwinSeed(seed, map[string]int{}); diff != "" {
				caught++
			}
		}
		if caught < 10 {
			t.Errorf("%s: caught on %d of 400 seeds, want ≥ 10", tc.name, caught)
		}
		t.Logf("%s: caught on %d of 400 seeds", tc.name, caught)
	}
}

// stripped returns a copy of the plan tree p with strip applied to
// every node.
func stripped(p *pnode, strip func(*pnode)) *pnode {
	c := *p
	strip(&c)
	c.edges = slices.Clone(p.edges)
	for i := range c.edges {
		c.edges[i].to = stripped(p.edges[i].to, strip)
	}
	return &c
}
