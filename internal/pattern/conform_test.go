package pattern

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"yat/internal/tree"
)

// conformGen generates one case of the conformance oracle: a model
// whose patterns recurse through &P leaves, reference domains, ^P
// leaves and pattern domains (the Ptype ↔ &Pclass shape), and a store
// of data drawn from it, whose references close cycles, dangle, or
// point at data of the wrong shape, so that answers of both signs are
// common.
type conformGen struct {
	*rand.Rand
	model *Model
	names []tree.Name // the store's entries, some of them Skolem names
	// drawn maps a pattern name to the entries drawn from it, which its
	// &P leaves mostly reference.
	drawn map[string][]tree.Name
}

var conformSyms = []string{"class", "set", "bag", "tuple", "a"}

// genModel draws the model: random patterns Q0…, beside the ODMG model
// when objects says the store will hold ODMG objects, and beside it or
// the Car Schema now and then otherwise.
func (g *conformGen) genModel(objects bool) {
	switch {
	case objects:
		g.model = ODMGModel()
	case g.Intn(2) == 0:
		g.model = CarSchemaModel().Merge(ODMGModel())
	default:
		g.model = NewModel()
	}
	k := 1 + g.Intn(3)
	for i := 0; i < k; i++ {
		// Declared first, so that every pattern can name every other.
		g.model.Add(NewPattern(fmt.Sprintf("Q%d", i)))
	}
	for i := 0; i < k; i++ {
		p, _ := g.model.Get(fmt.Sprintf("Q%d", i))
		for j, n := 0, 1+g.Intn(3); j < n; j++ {
			p.Union = append(p.Union, g.branch())
		}
	}
}

// patName names a pattern of the model, now and then an undefined one.
func (g *conformGen) patName() string {
	if g.Intn(12) == 0 {
		return "Pnone"
	}
	names := g.model.Names()
	return names[g.Intn(len(names))]
}

// branch is the root of a union branch. A ^P leaf or a pattern variable
// at a root would unfold into itself without descending (Q = ^Q), so
// roots are constants, data variables and reference leaves.
func (g *conformGen) branch() *PTree {
	switch g.Intn(6) {
	case 0:
		return NewPatRef(g.patName(), true)
	case 1:
		return NewVar("R", RefDomain(g.patName()))
	}
	return g.inner(2)
}

// inner is a constant or data-variable node with up to three edges, at
// most one of them star-like, as in the paper's patterns. (Runs of star
// edges make the oracle, which memoizes nothing, exponential.)
func (g *conformGen) inner(depth int) *PTree {
	var pt *PTree
	if g.Intn(4) == 0 {
		pt = NewVar("L", g.dataDomain())
	} else {
		pt = NewSym(conformSyms[g.Intn(len(conformSyms))])
	}
	starred := false
	for i, n := 0, g.Intn(4); i < n; i++ {
		var to *PTree
		if depth == 0 || g.Intn(2) == 0 {
			to = g.leaf()
		} else {
			to = g.inner(depth - 1)
		}
		switch k := g.Intn(6); {
		case k < 3 && !starred:
			starred = true
			pt.Edges = append(pt.Edges, []Edge{Star(to), Star(to), Group(to), Ordered(to, "L"), Index("I", to)}[g.Intn(5)])
		default:
			pt.Edges = append(pt.Edges, One(to))
		}
	}
	return pt
}

func (g *conformGen) leaf() *PTree {
	switch g.Intn(7) {
	case 0:
		return NewPatRef(g.patName(), true)
	case 1:
		return NewPatRef(g.patName(), false)
	case 2:
		return NewVar("P", PatternDomain(g.patName()))
	case 3:
		return NewVar("R", RefDomain(g.patName()))
	case 4:
		return NewVar("Y", g.dataDomain())
	}
	return NewSym(conformSyms[g.Intn(len(conformSyms))])
}

func (g *conformGen) dataDomain() Domain {
	switch g.Intn(4) {
	case 0:
		return KindDomain([]tree.Kind{tree.KindString, tree.KindInt, tree.KindSymbol}[g.Intn(3)], tree.KindBool)
	case 1:
		return SymbolDomain("set", "bag")
	}
	return AnyDomain
}

// data draws a tree that instantiates pt, unless noise strikes.
func (g *conformGen) data(pt *PTree, depth int) *tree.Node {
	if g.Intn(30) == 0 {
		return g.noise(1)
	}
	switch l := pt.Label.(type) {
	case Const:
		return g.kids(tree.New(l.Value), pt.Edges, depth)
	case Var:
		switch {
		case l.Domain.IsRefPattern():
			return g.refTo(l.Domain.Pattern)
		case l.Domain.IsPattern():
			return g.fromPattern(l.Domain.Pattern, depth)
		}
		return g.kids(tree.New(g.constIn(l.Domain)), pt.Edges, depth)
	case PatRef:
		if l.Ref {
			return g.refTo(l.Name)
		}
		return g.fromPattern(l.Name, depth)
	}
	return g.noise(0)
}

// object draws an ODMG object, class -> name -*> attribute -> value,
// for the Pclass ↔ Ptype recursion: values are mostly references to
// other objects, so the object graph has cycles, and now and then a
// value Ptype rejects, so some cycles fail after others close.
func (g *conformGen) object() *tree.Node {
	name := tree.Str("obj")
	for i, n := 0, 1+g.Intn(3); i < n; i++ {
		name.Add(tree.Sym("att", g.value(2)))
	}
	return tree.Sym("class", name)
}

func (g *conformGen) value(depth int) *tree.Node {
	switch k := g.Intn(10); {
	case k < 4:
		return g.refTo("Pclass")
	case k == 4:
		return tree.Str("x")
	case k == 5 && depth > 0:
		return tree.Sym("set", g.value(depth-1), g.value(depth-1))
	case k == 6 && depth > 0:
		return tree.Sym("tuple", tree.Sym("f", g.value(depth-1)))
	case k == 7:
		return tree.Sym("oops") // a symbol is not an atom of Ptype
	}
	return g.refLeaf()
}

// refTo mostly references an entry drawn from pattern name.
func (g *conformGen) refTo(name string) *tree.Node {
	if d := g.drawn[name]; len(d) > 0 && g.Intn(4) != 0 {
		return tree.RefLeaf(d[g.Intn(len(d))])
	}
	return g.refLeaf()
}

// fromPattern draws from a branch of pattern name, from a reference
// branch half of the time when it has one: references are what this
// test is about.
func (g *conformGen) fromPattern(name string, depth int) *tree.Node {
	p, ok := g.model.Get(name)
	if !ok || len(p.Union) == 0 {
		return g.noise(0)
	}
	if g.Intn(2) == 0 || depth == 0 {
		for _, b := range p.Union {
			switch l := b.Label.(type) {
			case PatRef:
				return g.refTo(l.Name)
			case Var:
				if l.Domain.IsRefPattern() {
					return g.refTo(l.Domain.Pattern)
				}
			}
		}
	}
	if depth == 0 {
		return g.noise(0)
	}
	return g.data(p.Union[g.Intn(len(p.Union))], depth-1)
}

func (g *conformGen) kids(n *tree.Node, edges []Edge, depth int) *tree.Node {
	for _, e := range edges {
		k := 1
		if e.Occ != OccOne {
			k = g.Intn(3)
		}
		for ; k > 0; k-- {
			n.Add(g.data(e.To, depth))
		}
	}
	return n
}

func (g *conformGen) constIn(d Domain) tree.Value {
	switch {
	case len(d.Symbols) > 0:
		return tree.Symbol(d.Symbols[g.Intn(len(d.Symbols))])
	case len(d.Kinds) > 0:
		switch d.Kinds[g.Intn(len(d.Kinds))] {
		case tree.KindString:
			return tree.String("x")
		case tree.KindInt:
			return tree.Int(int64(g.Intn(3)))
		case tree.KindSymbol:
			return tree.Symbol(conformSyms[g.Intn(len(conformSyms))])
		case tree.KindBool:
			return tree.Bool(g.Intn(2) == 0)
		}
	}
	return g.atom()
}

func (g *conformGen) atom() tree.Value {
	return []tree.Value{
		tree.Symbol(conformSyms[g.Intn(len(conformSyms))]), tree.String("x"),
		tree.Int(int64(g.Intn(3))), tree.Float(0.5), tree.Bool(true),
	}[g.Intn(5)]
}

// refLeaf references an entry of the store — itself or a later one
// closes a cycle — or, now and then, a name the store does not bind.
func (g *conformGen) refLeaf() *tree.Node {
	if g.Intn(8) == 0 {
		return tree.RefLeaf(tree.SkolemName("gone", tree.Int(int64(g.Intn(2)))))
	}
	return tree.RefLeaf(g.names[g.Intn(len(g.names))])
}

// noise draws a small random tree; a reference in it may have
// children, which &P admits and a reference domain does not.
func (g *conformGen) noise(depth int) *tree.Node {
	n := tree.New(g.atom())
	if g.Intn(4) == 0 {
		n = g.refLeaf()
	}
	if depth > 0 {
		for i, k := 0, g.Intn(3); i < k; i++ {
			n.Add(g.noise(depth - 1))
		}
	}
	return n
}

// conformCase is one generated store and model with the pairs to ask,
// in a seeded order.
type conformCase struct {
	store *tree.Store
	model *Model
	pairs []conformKey
}

func genConformCase(seed int64) conformCase {
	g := &conformGen{Rand: rand.New(rand.NewSource(seed)), drawn: map[string][]tree.Name{}}
	objects := g.Intn(2) == 0
	g.genModel(objects)
	pats := g.model.Patterns()
	from := make([]*Pattern, 2+g.Intn(5))
	for i := range from {
		name := tree.PlainName(fmt.Sprintf("e%d", i))
		if g.Intn(3) == 0 {
			name = tree.SkolemName("Pobj", tree.String(fmt.Sprintf("e%d", i)))
		}
		from[i] = pats[g.Intn(len(pats))]
		if objects {
			from[i], _ = g.model.Get("Pclass")
		}
		g.names = append(g.names, name)
		g.drawn[from[i].Name] = append(g.drawn[from[i].Name], name)
	}
	store := tree.NewStore()
	var nodes []*tree.Node
	for i, name := range g.names {
		var t *tree.Node
		if objects {
			t = g.object()
		} else {
			t = g.data(from[i].Union[g.Intn(len(from[i].Union))], 3)
		}
		store.Put(name, t)
		t.Walk(func(n *tree.Node) bool { nodes = append(nodes, n); return true })
	}
	// Trees outside the store are asked about too.
	for i := 0; i < 2; i++ {
		p := pats[g.Intn(len(pats))]
		nodes = append(nodes, g.data(p.Union[g.Intn(len(p.Union))], 3))
	}
	var pairs []conformKey
	for _, n := range nodes {
		for _, q := range append(g.model.Names(), "Pnone") {
			pairs = append(pairs, conformKey{node: n, pat: q})
		}
	}
	g.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return conformCase{store: store, model: g.model, pairs: pairs}
}

// oracle answers every pair the way the instantiation relation does
// over the ground model of the store, with a fresh checker per pair.
func (c conformCase) oracle() []bool {
	inst := StoreModel(c.store)
	want := make([]bool, len(c.pairs))
	for i, k := range c.pairs {
		if q, ok := c.model.Get(k.pat); ok {
			want[i] = newChecker(inst, c.model).patternBranchesTree(GroundTree(k.node), q)
		}
	}
	return want
}

// checkConformSeed asks every pair of the seed's case through one
// shared checker and returns the first answer that differs from the
// oracle's. made counts answers and the reference events seen.
func checkConformSeed(seed int64, made map[string]int, cacheNestedTrue bool) (pairs int, diff string) {
	c := genConformCase(seed)
	want := c.oracle()
	cc := NewConformanceChecker(c.store, c.model)
	cc.cacheNestedTrue = cacheNestedTrue
	seen := map[refEvent]bool{}
	cc.observe = func(ev refEvent) { seen[ev] = true }
	for i, k := range c.pairs {
		got := cc.Conforms(k.node, k.pat)
		made[fmt.Sprintf("answer %v", want[i])]++
		if got != want[i] && diff == "" {
			diff = fmt.Sprintf("pair %d: Conforms(%s, %s) = %v, ground model says %v\nmodel:\n%sstore:\n%s",
				i, k.node, k.pat, got, want[i], c.model, tree.FormatStore(c.store))
		}
	}
	for ev, name := range map[refEvent]string{
		refDangling: "dangling reference", refAssumed: "reference cycle hit",
		refMemoHit: "nested memo hit", refNestedFalse: "nested false cached",
	} {
		if seen[ev] {
			made[name]++
		}
	}
	return len(c.pairs), diff
}

func conformSeeds(t *testing.T, soak int64) (first, seeds int64) {
	first, seeds = 1, soak/10
	if os.Getenv("YAT_SOAK") == "1" {
		seeds = soak
	}
	if s := os.Getenv("YAT_CONFORM_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	return first, seeds
}

// The differential test of the data-walking checker: over generated
// models and stores, every (node, pattern) pair asked in a seeded order
// through one shared checker — so each answer may come from what
// earlier pairs left in the memo — gets the answer the instantiation
// relation gives over the store's ground model.
func TestConformsMatchesGroundModel(t *testing.T) {
	first, seeds := conformSeeds(t, 5000)
	made := map[string]int{}
	pairs := 0
	for seed := first; seed < first+seeds; seed++ {
		n, diff := checkConformSeed(seed, made, false)
		pairs += n
		if diff != "" {
			t.Fatalf("seed %d: checker and ground model differ:\n%s\nrerun with YAT_CONFORM_SEED=%d go test ./internal/pattern -run TestConformsMatchesGroundModel",
				seed, diff, seed)
		}
	}
	if seeds == 1 {
		return
	}
	// Not vacuous: each memo and fixpoint case was reached on a tenth of
	// the seeds, and both answers were common.
	for _, trap := range []string{"dangling reference", "reference cycle hit", "nested memo hit", "nested false cached"} {
		if int64(made[trap]) < seeds/10 {
			t.Errorf("%q on %d of %d seeds, want ≥ %d", trap, made[trap], seeds, seeds/10)
		}
	}
	for _, ans := range []string{"answer true", "answer false"} {
		if made[ans] < pairs/20 {
			t.Errorf("%s on %d of %d pairs, want ≥ %d", ans, made[ans], pairs, pairs/20)
		}
	}
	t.Logf("%d pairs over %d seeds; %v", pairs, seeds, made)
}

// TestConformsMutationDetected proves the oracle can fail: a checker
// that also caches a true reached under an assumption is caught.
func TestConformsMutationDetected(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 500; seed++ {
		if _, diff := checkConformSeed(seed, map[string]int{}, true); diff != "" {
			caught++
		}
	}
	if caught < 10 {
		t.Errorf("caching a nested true was caught on %d of 500 seeds, want ≥ 10", caught)
	}
	t.Logf("caching a nested true was caught on %d of 500 seeds", caught)
}

// The concurrent variant: eight goroutines ask every pair, each in its
// own order, through one checker. Under -race it checks the memo's
// locking; every answer must still be the ground model's.
func TestConformsMatchesGroundModelConcurrent(t *testing.T) {
	first, seeds := conformSeeds(t, 1000)
	for seed := first; seed < first+seeds; seed++ {
		c := genConformCase(seed)
		want := c.oracle()
		cc := NewConformanceChecker(c.store, c.model)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			order := rand.New(rand.NewSource(seed*8 + int64(w))).Perm(len(c.pairs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					k := c.pairs[i]
					if got := cc.Conforms(k.node, k.pat); got != want[i] {
						t.Errorf("seed %d: Conforms(%s, %s) = %v, ground model says %v (YAT_CONFORM_SEED=%d)",
							seed, k.node, k.pat, got, want[i], seed)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

// A cached answer costs a read lock and a map lookup, nothing else.
func TestConformsCachedAllocs(t *testing.T) {
	store := GolfStore()
	c1, _ := store.Get(tree.PlainName("c1"))
	cc := NewConformanceChecker(store, CarSchemaModel())
	if !cc.Conforms(c1, "Pcar") {
		t.Fatal("c1 should conform to Pcar")
	}
	if got := testing.AllocsPerRun(100, func() { cc.Conforms(c1, "Pcar") }); got != 0 {
		t.Errorf("a cached Conforms allocates %.0f times, want 0", got)
	}
}
