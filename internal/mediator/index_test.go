package mediator

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"yat/internal/pattern"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// copyProgram mints every input under g1/h1 as an F1 object, every one
// under g2 as an F2 object, and F3 from nothing: whatever trees a test
// stores become the buckets, through the engine, in both modes. F1 is
// minted by two rules, so its bucket is the dedup of two entry lists.
const copyProgram = `program copies
rule C1  { head F1(P) = T  from P = g1 -> T }
rule C1b { head F1(P) = T  from P = h1 -> T }
rule C2  { head F2(P) = T  from P = g2 -> T }
rule C3  { head F3(P) = T  from P = g3 -> T }
`

var (
	negZero  = math.Copysign(0, -1)
	otherNaN = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)

	sup = func(arg tree.Value) tree.Value { return tree.Ref{Name: tree.SkolemName("Psup", arg)} }

	// leafLabels and innerLabels are what generated trees are made of:
	// every kind, and every pair of labels that look alike and are not
	// Equal, or are Equal and do not look alike.
	leafLabels = []tree.Value{
		tree.Symbol("x"), tree.String("x"), tree.Symbol("true"), tree.Bool(true), tree.Bool(false),
		tree.Int(1), tree.Float(1), tree.Int(0), tree.Float(0), tree.Float(negZero),
		tree.Float(math.NaN()), tree.Float(otherNaN), tree.Int(-7), tree.Int(1 << 40),
		tree.String(""), tree.String(`a "quoted" \ one`), tree.String("é\n\x00"),
		tree.Ref{Name: tree.PlainName("b1")}, sup(tree.String("VW center")),
		sup(tree.Symbol("x")), sup(tree.String("x")), sup(tree.Float(0)), sup(tree.Float(negZero)),
	}
	innerLabels = []tree.Value{
		tree.Symbol("a"), tree.Symbol("b"), tree.Symbol("x"), tree.String("x"),
		tree.Int(1), tree.Float(1), tree.Float(0), tree.Float(negZero), tree.Bool(true),
	}
)

// twin returns a label easily mistaken for v: the same text in another
// kind (never Equal), or the same float in other bits (Equal).
func twin(v tree.Value) tree.Value {
	switch x := v.(type) {
	case tree.Symbol:
		return tree.String(x)
	case tree.String:
		return tree.Symbol(x)
	case tree.Int:
		return tree.Float(x)
	case tree.Bool:
		return tree.Symbol(strconv.FormatBool(bool(x)))
	case tree.Float:
		switch f := float64(x); {
		case math.IsNaN(f) && math.Float64bits(f) == math.Float64bits(otherNaN):
			return tree.Float(math.NaN())
		case math.IsNaN(f):
			return tree.Float(otherNaN)
		case f == 0:
			return tree.Float(-f)
		}
		return tree.Int(int64(x))
	case tree.Ref:
		if len(x.Name.Args) == 1 {
			return sup(twin(x.Name.Args[0]))
		}
	}
	return v
}

// askGen generates small ground trees and ask patterns derived from
// them, loaded with the cases in which a leaf-path index could withhold
// an entry the scan finds. made counts what it generated, by trap.
type askGen struct {
	*rand.Rand
	made map[string]int
	vars int
}

func (g *askGen) pick(pool []tree.Value) tree.Value { return pool[g.Intn(len(pool))] }

func (g *askGen) tree(depth int) *tree.Node {
	if depth == 0 || g.Intn(3) == 0 {
		return tree.New(g.pick(leafLabels))
	}
	n := tree.New(g.pick(innerLabels)) // with no child drawn: an inner label at a leaf
	for k := g.Intn(4); k > 0; k-- {
		c := g.tree(depth - 1)
		n.Add(c)
		if g.Intn(4) == 0 {
			g.made["duplicate leaves in one tree"]++
			n.Add(c.Clone())
		}
	}
	return n
}

func (g *askGen) leafVar() *pattern.PTree {
	g.vars++
	return pattern.NewVar(fmt.Sprintf("V%d", g.vars), pattern.AnyDomain)
}

// pattern derives a pattern from a tree: each step keeps what the tree
// has or generalizes it, so the result matches the tree — unless a
// label is swapped for its twin or a subtree cut, which is the point.
func (g *askGen) pattern(n *tree.Node) *pattern.PTree {
	switch r := g.Intn(14); {
	case r == 0:
		return g.leafVar()
	case r == 1 && len(n.Children) > 0:
		g.made["internal Var label above constant leaves"]++
		g.vars++
		return pattern.NewVar(fmt.Sprintf("V%d", g.vars), pattern.AnyDomain, g.edges(n.Children)...)
	case r == 2 && len(n.Children) > 0:
		g.made["constant pattern leaf on an internal tree node"]++
		return pattern.NewConst(n.Label)
	}
	label := n.Label
	if g.Intn(6) == 0 {
		label = twin(label)
		if _, ok := label.(tree.Float); ok && label.Equal(n.Label) {
			g.made["Float constant Equal to a leaf of other bits (-0.0/0.0, NaN/NaN)"]++
		}
	}
	switch l := label.(type) {
	case tree.Float:
		g.made["Float constant"]++
	case tree.Ref:
		g.made["Ref constant with a Skolem name"]++
	case tree.String:
		if strconv.Quote(string(l)) != `"`+string(l)+`"` {
			g.made["String constant that needs quoting"]++
		}
	}
	return pattern.NewConst(label, g.edges(n.Children)...)
}

func (g *askGen) edges(kids []*tree.Node) []pattern.Edge {
	var out []pattern.Edge
	for i := 0; i < len(kids); i++ {
		if g.Intn(8) == 0 {
			g.made["constant under a variable-free star with zero occurrences"]++
			out = append(out, pattern.Star(pattern.NewSym("absent", pattern.One(pattern.NewConst(tree.String("nowhere"))))))
		}
		switch g.Intn(10) {
		case 0:
			g.made["star binding the rest"]++
			return append(out, pattern.Star(g.leafVar()))
		case 1:
			g.made["constant under a variable-binding star"]++
			out = append(out, pattern.Star(pattern.NewConst(kids[i].Label, g.restVar(kids[i])...)))
		case 2:
			g.made["constant under a variable-free star with occurrences"]++
			sub := kids[i].Clone()
			out = append(out, pattern.Group(groundPattern(sub)))
		case 3:
			g.made["index edge"]++
			g.vars++
			out = append(out, pattern.Index(fmt.Sprintf("I%d", g.vars), g.pattern(kids[i])))
		default:
			out = append(out, pattern.One(g.pattern(kids[i])))
		}
	}
	return out
}

// restVar is the edge list `-*> V` for a node with children, none for a
// leaf: with the node's label above it, a pattern of exactly that node.
func (g *askGen) restVar(n *tree.Node) []pattern.Edge {
	if len(n.Children) == 0 {
		return nil
	}
	return []pattern.Edge{pattern.Star(g.leafVar())}
}

// groundPattern is the variable-free pattern matching exactly n.
func groundPattern(n *tree.Node) *pattern.PTree {
	pt := pattern.NewConst(n.Label)
	for _, c := range n.Children {
		pt.Edges = append(pt.Edges, pattern.One(groundPattern(c)))
	}
	return pt
}

func mergeKeys(as []Answer) []string {
	out := make([]string, len(as))
	for i := range as {
		out[i] = as[i].MergeKey()
	}
	return out
}

// checkIndexedAsk holds one ask to the index's two obligations: the
// demand-mode answers are the full-materialization oracle's, key for
// key, and per group every entry the matcher accepts is among the
// candidates, which are bucket entries in bucket order. It reports how
// many entries the groups hold, how many the index left, and how many
// answers there were.
func checkIndexedAsk(t *testing.T, demand, full *Mediator, pt *pattern.PTree, functors []string) (scanned, candidates, answers int) {
	t.Helper()
	want, err := full.AskPattern(pt, functors...)
	if err != nil {
		t.Fatalf("full mode: %v", err)
	}
	got, err := demand.AskPattern(pt, functors...)
	if err != nil {
		t.Fatalf("demand mode: %v", err)
	}
	if g, w := mergeKeys(got), mergeKeys(want); !slices.Equal(g, w) {
		t.Errorf("indexed demand-mode answers differ from full mode's\n got %q\nwant %q", g, w)
	}
	v := demand.state().dgen.cache.view()
	for f, grp := range v.groups {
		if len(functors) > 0 && !slices.Contains(functors, f) {
			continue
		}
		cands := v.candidates(pt, f)
		scanned += len(grp.bucket)
		candidates += len(cands)
		at := 0
		for _, e := range grp.bucket {
			isCand := at < len(cands) && cands[at].Tree == e.Tree
			if isCand {
				at++
			} else if len(storelessMatcher.MatchTree(pt, e.Tree)) > 0 {
				t.Errorf("group %s: the index withholds %s = %s, which matches", f, e.Name, e.Tree)
			}
		}
		if at != len(cands) {
			t.Errorf("group %s: %d of %d candidates are not bucket entries in bucket order", f, len(cands)-at, len(cands))
		}
	}
	return scanned, candidates, len(got)
}

// The differential test of the leaf-path index (a down payment on
// ROADMAP's generated-equivalence item): over seeded small buckets and
// patterns derived from their trees, an indexed demand-mode ask answers
// exactly as a full materialization does, and the index never withholds
// an entry the matcher accepts.
func TestIndexedAskMatchesFullMode(t *testing.T) {
	prog := yatl.MustParse(copyProgram)
	first, seeds := int64(1), int64(2000)
	if s := os.Getenv("YAT_INDEX_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	functorSets := [][]string{nil, {"F1"}, {"F2"}, {"F3"}, {"F1", "F2"}, {"F2", "F1", "F2"}, {"F3", "F1"}}
	made := map[string]int{}
	var asks, narrowed, narrowedWithAnswers, scanned, candidates int
	for seed := first; seed < first+seeds; seed++ {
		g := &askGen{Rand: rand.New(rand.NewSource(seed)), made: made}
		store := tree.NewStore()
		var trees []*tree.Node
		for i, n := 0, g.Intn(12); i < n; i++ { // n = 0: every bucket is empty
			tr := g.tree(3)
			trees = append(trees, tr)
			store.Put(tree.PlainName(fmt.Sprintf("in%d", i)), tree.Sym([]string{"g1", "h1", "g2"}[g.Intn(3)], tr))
		}
		demand, full := New(prog, store, WithDemandDriven(true)), New(prog, store)
		for i := 0; i < 8; i++ {
			from := g.tree(2) // a pattern of a tree no bucket need hold
			if len(trees) > 0 && i > 0 {
				from = trees[g.Intn(len(trees))]
			}
			pt, functors := g.pattern(from), functorSets[g.Intn(len(functorSets))]
			s, c, a := checkIndexedAsk(t, demand, full, pt, functors)
			asks++
			scanned += s
			candidates += c
			if c < s {
				narrowed++
				if a > 0 {
					narrowedWithAnswers++
				}
			}
			if t.Failed() {
				t.Fatalf("seed %d, ask %d: pattern %s, functors %v, store:\n%s\nrerun with YAT_INDEX_SEED=%d go test ./internal/mediator -run %s",
					seed, i, pt, functors, tree.FormatStore(store), seed, t.Name())
			}
		}
	}
	if seeds == 1 {
		return
	}
	// Not vacuous: every trap was generated, and the index both narrowed
	// asks that had answers and left others their whole buckets.
	for _, trap := range []string{
		"duplicate leaves in one tree",
		"internal Var label above constant leaves",
		"constant pattern leaf on an internal tree node",
		"Float constant",
		"Float constant Equal to a leaf of other bits (-0.0/0.0, NaN/NaN)",
		"Ref constant with a Skolem name",
		"String constant that needs quoting",
		"constant under a variable-free star with zero occurrences",
		"constant under a variable-free star with occurrences",
		"constant under a variable-binding star",
		"star binding the rest",
		"index edge",
	} {
		if made[trap] < 100 {
			t.Errorf("trap %q generated %d times in %d seeds, want ≥ 100", trap, made[trap], seeds)
		}
	}
	if narrowedWithAnswers < 1000 || asks-narrowed < 1000 {
		t.Errorf("%d asks: the index narrowed %d (%d of them with answers), want ≥ 1000 narrowed with answers and ≥ 1000 not narrowed",
			asks, narrowed, narrowedWithAnswers)
	}
	t.Logf("%d asks over %d seeds: %d narrowed (%d with answers), %d of %d entries left to the matcher; traps %v",
		asks, seeds, narrowed, narrowedWithAnswers, candidates, scanned, made)
}

// The traps one by one, each with the answer count the matcher's
// semantics give it: where a hash that disagreed with Value.Equal, or a
// path taken from under a star or through a variable, would lose one.
func TestIndexTraps(t *testing.T) {
	prog := yatl.MustParse(copyProgram)
	store := tree.NewStore()
	for i, src := range []string{
		`rec < k < 1 >, f < 0.0 > >`,
		`rec < k < 1.0 >, f < -0.0 > >`,
		`rec < k < x >, f < 2.5 > >`,
		`rec < k < "x" >, f < 7 > >`,
		`rec < k < "a \"q\" \\ b" >, f < 7 >, f < 7 > >`,
		`rec < k < &Psup("VW center") >, f < true > >`,
		`rec < k < &Psup(-0.0) >, f < "true" > >`,
		`rec < k < deep < 1 > >, f < 7 > >`,
		`rec < k < 1 > >`,
		`bag < 1, 1, 2 >`,
		`bag`,
	} {
		store.Put(tree.PlainName(fmt.Sprintf("in%d", i)), tree.Sym("g1", tree.MustParse(src)))
	}
	store.Put(tree.PlainName("nan"), tree.Sym("g1", // the ground syntax has no NaN
		tree.Sym("rec", tree.Sym("k", tree.Sym("nan")), tree.Sym("f", tree.FloatLeaf(math.NaN())))))
	store.Put(tree.PlainName("other"), tree.Sym("g2", tree.MustParse(`rec < k < 1 >, f < 0.0 > >`)))
	demand, full := New(prog, store, WithDemandDriven(true)), New(prog, store)
	cons := func(v tree.Value, edges ...pattern.Edge) *pattern.PTree { return pattern.NewConst(v, edges...) }
	rec := func(k *pattern.PTree, f pattern.Edge) *pattern.PTree {
		return pattern.NewSym("rec", pattern.One(pattern.NewSym("k", pattern.One(k))), f)
	}
	anyF := pattern.Star(pattern.NewSym("f", pattern.One(pattern.NewVar("F", pattern.AnyDomain))))
	oneF := func(v tree.Value) pattern.Edge { return pattern.One(pattern.NewSym("f", pattern.One(cons(v)))) }
	anyK := pattern.NewVar("K", pattern.AnyDomain)
	for _, tc := range []struct {
		name     string
		pt       *pattern.PTree
		functors []string
		want     int
		narrows  bool
	}{
		{"Int 1 is not Float 1", rec(cons(tree.Int(1)), anyF), []string{"F1"}, 1, true},
		{"Float 1 is not Int 1, and is not indexed", rec(cons(tree.Float(1)), anyF), []string{"F1"}, 1, false},
		{"Symbol x is not String x", rec(cons(tree.Symbol("x")), anyF), []string{"F1"}, 1, true},
		{"String x is not Symbol x", rec(cons(tree.String("x")), anyF), []string{"F1"}, 1, true},
		{"a string that needs quoting", rec(cons(tree.String(`a "q" \ b`)), anyF), []string{"F1"}, 2, true},
		{"-0.0 finds 0.0 and -0.0", rec(anyK, oneF(tree.Float(negZero))), []string{"F1"}, 2, false},
		{"one NaN finds another", rec(anyK, oneF(tree.Float(otherNaN))), []string{"F1"}, 1, false},
		{"Bool true is not String true", rec(anyK, oneF(tree.Bool(true))), []string{"F1"}, 1, true},
		{"a Ref by its Skolem name", rec(cons(sup(tree.String("VW center"))), anyF), []string{"F1"}, 1, true},
		{"Ref names are keys: -0.0 is not 0.0 there", rec(cons(sup(tree.Float(0))), anyF), []string{"F1"}, 0, true},
		{"a Ref name with a Float argument", rec(cons(sup(tree.Float(negZero))), anyF), []string{"F1"}, 1, true},
		{"a constant leaf does not match an internal node", rec(cons(tree.Symbol("deep")), anyF), []string{"F1"}, 0, true},
		{"a constant under an empty variable-free star",
			pattern.NewSym("rec", pattern.One(pattern.NewSym("k", pattern.One(cons(tree.Int(1))))),
				pattern.Star(pattern.NewSym("f", pattern.One(cons(tree.Int(99)))))), []string{"F1"}, 1, true},
		{"only a constant under a variable-free star",
			pattern.NewSym("rec", pattern.One(pattern.NewSym("k", pattern.One(anyK))),
				pattern.Group(pattern.NewSym("f", pattern.One(cons(tree.Int(7)))))), []string{"F1"}, 4, false},
		{"a constant under a variable-binding star",
			pattern.NewSym("bag", pattern.Star(pattern.NewVar("B", pattern.KindDomain(tree.KindInt)))), []string{"F1"}, 3, false},
		{"index edges", pattern.NewSym("bag", pattern.Index("I", cons(tree.Int(1))), pattern.One(cons(tree.Int(2)))), []string{"F1"}, 2, true},
		{"an internal Var label above a constant leaf",
			pattern.NewSym("rec", pattern.One(pattern.NewVar("L", pattern.AnyDomain, pattern.One(cons(tree.Int(1))))), anyF), []string{"F1"}, 1, false},
		{"a root that is a leaf", pattern.NewSym("bag"), []string{"F1"}, 1, true},
		{"duplicate leaves are one candidate", rec(anyK, pattern.Star(pattern.NewSym("f", pattern.One(cons(tree.Int(7)))))), []string{"F1"}, 4, false},
		{"an empty bucket", rec(cons(tree.Int(1)), anyF), []string{"F3"}, 0, false},
		{"two functors", rec(cons(tree.Int(1)), anyF), []string{"F2", "F1"}, 2, true},
		{"a repeated functor", rec(cons(tree.Int(1)), anyF), []string{"F1", "F2", "F1"}, 2, true},
		{"no functor", rec(cons(tree.Int(1)), anyF), nil, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scanned, candidates, answers := checkIndexedAsk(t, demand, full, tc.pt, tc.functors)
			if answers != tc.want {
				t.Errorf("%s: %d answers, want %d", tc.pt, answers, tc.want)
			}
			if narrowed := candidates < scanned; narrowed != tc.narrows {
				t.Errorf("%s: %d candidates of %d entries, want narrowed = %v", tc.pt, candidates, scanned, tc.narrows)
			}
		})
	}
}

// hashLabel's contract, label by label: Equal labels that are both
// admitted hash alike from any prefix, and a refused label is Equal to
// no admitted one.
func TestHashLabelAgreesWithEqual(t *testing.T) {
	labels := append(append([]tree.Value{tree.TreeVal{Root: tree.Sym("x")}}, leafLabels...), innerLabels...)
	for _, a := range labels {
		ha, oka := hashLabel(pathSeed, a)
		for _, b := range labels {
			hb, okb := hashLabel(pathSeed, b)
			switch {
			case !a.Equal(b):
			case oka != okb:
				t.Errorf("%s equals %s, and only one of them is indexable", a.Display(), b.Display())
			case oka && ha != hb:
				t.Errorf("%s equals %s, and they hash to %#x and %#x", a.Display(), b.Display(), ha, hb)
			}
		}
		if _, isFloat := a.(tree.Float); oka == (isFloat || a.Kind() == tree.KindTree) {
			t.Errorf("%s (%s): indexable = %v", a.Display(), a.Kind(), oka)
		}
	}
}

// The shape of a point lookup, not its clock: a supplier's name selects
// the one entry that cites it, an unknown name none — and then the ask
// allocates nothing — and a pattern with no usable path is handed the
// bucket's own backing array.
func TestPointLookupCandidates(t *testing.T) {
	m := lookupMediator(t)
	view, err := m.Ask(`view < -> name -> N, -> city -> C, -> zip -> Z >`, "Pview1")
	if err != nil || len(view) < 400 {
		t.Fatalf("view: %d answers, %v", len(view), err)
	}
	cache := m.state().dgen.cache.view()
	bucket := cache.bucket("Pview1")
	if len(bucket) != len(view) {
		t.Fatalf("bucket holds %d entries for %d answers", len(bucket), len(view))
	}
	cited := map[string]bool{}
	for _, a := range view {
		cited[a.Binding["N"].Display()] = true
	}
	present, absent := 0, 0
	for s := 1; s <= 500; s++ {
		pt := yatl.MustParsePattern(lookupPattern(s))
		got := cache.candidates(pt, "Pview1")
		want := 0
		if cited[fmt.Sprintf("%q", fmt.Sprintf("Supplier %03d", s))] {
			want = 1
			present++
		} else {
			absent++
			if n := testing.AllocsPerRun(10, func() { m.AskPattern(pt, "Pview1") }); n != 0 {
				t.Errorf("supplier %d, which no entry cites: the ask allocates %.0f times, want 0", s, n)
			}
		}
		if len(got) != want {
			t.Fatalf("supplier %d: %d candidates, want %d", s, len(got), want)
		}
		if answers, err := m.AskPattern(pt, "Pview1"); err != nil || len(answers) != want {
			t.Fatalf("supplier %d: %d answers, %v; want %d", s, len(answers), err, want)
		}
	}
	if present != len(bucket) || absent == 0 {
		t.Fatalf("vacuous: %d suppliers cited by %d entries, %d absent", present, len(bucket), absent)
	}
	for _, src := range []string{`X`, `view < -> name -> N, -> city -> C, -> zip -> Z >`, `view -*> F`} {
		got := cache.candidates(yatl.MustParsePattern(src), "Pview1")
		if len(got) != len(bucket) || &got[0] != &bucket[0] {
			t.Errorf("%s: the candidates are not the bucket itself (a copy, or %d of %d entries)", src, len(got), len(bucket))
		}
	}
	if got := cache.candidates(nil, "Pview1"); len(got) != len(bucket) || &got[0] != &bucket[0] {
		t.Error("no pattern (Get, Functors): the candidates are not the bucket itself")
	}
}

// A point lookup answers as the full-mode oracle over the same data
// does after everything that replaces or moves a group: an insert and
// a delete absorbed in place, a Reload that carries the group over, and a
// Snapshot → Restore — each rebuilds or shares the index with the
// bucket, so none can leave a stale one behind.
func TestPointLookupAfterCacheMutations(t *testing.T) {
	prog := yatl.MustParse(workload.PartitionedProgram(2))
	lookup := func(id string) string { return fmt.Sprintf(`item < -> name -> "n1_%s", -> idx -> I >`, id) }
	store := workload.PartitionedStore(2, 40)
	fault := source.NewFault("parts", store)
	m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
	check := func(m *Mediator, what, id string, want int) {
		t.Helper()
		oracle, err := New(prog, store).Ask(lookup(id), "Ppart1")
		if err != nil || len(oracle) != want {
			t.Fatalf("%s: oracle gives %d answers for %s, %v; want %d", what, len(oracle), id, err, want)
		}
		got, err := m.Ask(lookup(id), "Ppart1")
		if err != nil || !slices.Equal(mergeKeys(got), mergeKeys(oracle)) {
			t.Errorf("%s: lookup of %s = %q, %v; full mode gives %q", what, id, mergeKeys(got), err, mergeKeys(oracle))
		}
		g := m.state().dgen
		if n := len(g.cache.view().candidates(yatl.MustParsePattern(lookup(id)), "Ppart1")); n != want {
			t.Errorf("%s: %d candidates for %s, want %d", what, n, id, want)
		}
	}
	refresh := func(mutate func(*tree.Store)) {
		t.Helper()
		store = store.Clone()
		mutate(store)
		fault.SetStore(store)
		if err := m.RefreshSource(context.Background(), "parts"); err != nil {
			t.Fatal(err)
		}
	}
	check(m, "cold fill", "0007", 1)
	check(m, "cold fill", "new", 0)

	refresh(func(s *tree.Store) { s.Put(workload.PartitionedEntry(1, "new", 40)) })
	if st := m.Stats(); st.DeltaRuns != 1 || st.DeltaFallbacks != 0 {
		t.Fatalf("the insert was not absorbed in place: %+v", st)
	}
	check(m, "insert re-run", "new", 1)
	check(m, "insert re-run", "0007", 1)

	refresh(func(s *tree.Store) { s.Delete(tree.PlainName("p1_0007")) })
	if st := m.Stats(); st.DeltaRuns != 2 || st.DeltaFallbacks != 0 {
		t.Fatalf("the delete was not absorbed in place: %+v", st)
	}
	check(m, "delete re-run", "0007", 0)
	check(m, "delete re-run", "new", 1)

	runs := m.Stats().SliceRuns
	m.Reload(yatl.MustParse(workload.PartitionedProgram(2)))
	check(m, "reload", "new", 1)
	check(m, "reload", "0007", 0)
	if st := m.Stats(); st.SliceRuns != runs {
		t.Fatalf("the reload did not carry Ppart1 over: %d slice runs, were %d", st.SliceRuns, runs)
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(prog, nil, WithDemandDriven(true), WithSources(source.Static("parts", store)))
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check(restored, "restore", "new", 1)
	check(restored, "restore", "0007", 0)
	check(restored, "restore", "0011", 1)
	if st := restored.Stats(); st.SliceRuns != runs || st.CacheMisses != 0 {
		t.Fatalf("the restored generation re-ran a slice: %+v", st)
	}
	checkInvariants(t, restored.state())
}

// Get compares each scanned entry's key in one reused buffer.
func TestGetAllocs(t *testing.T) {
	m := lookupMediator(t)
	bucket := m.state().dgen.cache.view().bucket("Pview1")
	last := bucket[len(bucket)-1]
	if n := testing.AllocsPerRun(100, func() {
		if tr, ok, err := m.Get(last.Name); err != nil || !ok || tr != last.Tree {
			t.Fatalf("Get(%s) = %v, %v, %v", last.Name, tr, ok, err)
		}
	}); n > 3 {
		t.Errorf("Get past %d entries allocates %.0f times, want ≤ 3", len(bucket)-1, n)
	}
}
