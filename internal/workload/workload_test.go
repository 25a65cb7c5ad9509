package workload

import (
	"testing"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/sgml"
	"yat/internal/tree"
	"yat/internal/yatl"
)

func TestSuppliersDeterministic(t *testing.T) {
	a := Suppliers(10, 42)
	b := Suppliers(10, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("supplier %d differs across runs with same seed", i)
		}
	}
	c := Suppliers(10, 43)
	same := true
	for i := range a {
		if a[i].Address != c[i].Address {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical suppliers")
	}
	// Addresses parse with the built-in city/zip functions.
	reg := engine.NewRegistry()
	for _, s := range a {
		city, typed, err := reg.Call("city", []tree.Value{tree.String(s.Address)})
		if err != nil || !typed {
			t.Fatalf("city(%q): %v", s.Address, err)
		}
		if !city.Equal(tree.String(s.City)) {
			t.Errorf("city(%q) = %v, want %q", s.Address, city, s.City)
		}
		zip, _, err := reg.Call("zip", []tree.Value{tree.String(s.Address)})
		if err != nil || !zip.Equal(tree.Int(s.Zip)) {
			t.Errorf("zip(%q) = %v, want %d", s.Address, zip, s.Zip)
		}
	}
}

func TestBrochuresValidSGML(t *testing.T) {
	dtd := sgml.BrochureDTD()
	pool := Suppliers(5, 1)
	var s sgml.Scanner
	for i, b := range Brochures(20, 3, pool, 1) {
		if err := s.Scan(b.SGML(), dtd, discard{}); err != nil {
			t.Fatalf("brochure %d is not a valid document: %v", i, err)
		}
	}
}

// discard is a Sink that keeps nothing.
type discard struct{}

func (discard) Element(string, int, string) {}

func TestBrochureTreeMatchesSGMLImport(t *testing.T) {
	pool := Suppliers(3, 9)
	for _, b := range Brochures(5, 2, pool, 9) {
		direct := b.Tree()
		if !pattern.Conforms(direct, nil, pattern.BrochureModel(), "Pbr") {
			t.Fatalf("brochure tree does not conform to Pbr: %s", direct)
		}
	}
}

func TestBrochureStoreRunsRules(t *testing.T) {
	store := BrochureStore(10, 2, 5, 42)
	if store.Len() != 10 {
		t.Fatalf("store = %d entries", store.Len())
	}
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	cars, sups := 0, 0
	for _, e := range res.Outputs.Entries() {
		switch e.Name.Functor {
		case "Pcar":
			cars++
		case "Psup":
			sups++
		}
	}
	if cars != 10 {
		t.Errorf("cars = %d, want 10", cars)
	}
	if sups == 0 || sups > 5 {
		t.Errorf("suppliers = %d, want 1..5 (Skolem dedup over pool of 5)", sups)
	}
}

func TestDealerDatabaseJoins(t *testing.T) {
	pool := Suppliers(4, 7)
	brochures := Brochures(6, 2, pool, 7)
	db := DealerDatabase(brochures, pool, 7)
	cars, _ := db.Table("cars")
	if cars.Len() != 6 {
		t.Errorf("cars rows = %d", cars.Len())
	}
	sup, _ := db.Table("suppliers")
	if sup.Len() != 4 {
		t.Errorf("suppliers rows = %d", sup.Len())
	}
	sales, _ := db.Table("sales")
	if sales.Len() == 0 {
		t.Error("sales empty")
	}
	// Every brochure number appears as a broch_num.
	nums, _ := cars.Project("broch_num")
	seen := map[int64]bool{}
	for _, v := range nums {
		seen[v.I] = true
	}
	for _, b := range brochures {
		if !seen[b.Number] {
			t.Errorf("brochure %d missing from cars table", b.Number)
		}
	}
}

func TestMatrixTree(t *testing.T) {
	m := MatrixTree(3, 2)
	if len(m.Children) != 3 || len(m.Children[0].Children) != 2 {
		t.Fatalf("matrix shape wrong: %s", m)
	}
	// Transposing it works and swaps dimensions.
	store := tree.NewStore()
	store.Put(tree.PlainName("m"), m)
	prog := yatl.MustParse("program p\n" + yatl.Rule5Source)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res.Outputs.Get(tree.SkolemName("New", tree.Ref{Name: tree.PlainName("m")}))
	if !ok {
		t.Fatal("transpose output missing")
	}
	if len(out.Children) != 2 || len(out.Children[0].Children) != 3 {
		t.Errorf("transposed shape wrong: %s", out)
	}
}

func TestODMGStoreConformsAndConverts(t *testing.T) {
	store := ODMGStore(3, 4, 2, 11)
	schema := pattern.CarSchemaModel()
	c1, _ := store.Get(tree.PlainName("c1"))
	if !pattern.Conforms(c1, store, schema, "Pcar") {
		t.Fatalf("generated car does not conform to Pcar: %s", c1)
	}
	prog := yatl.MustParse(yatl.WebProgramSource)
	res, err := engine.Run(prog, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages := 0
	for _, e := range res.Outputs.Entries() {
		if e.Name.Functor == "HtmlPage" {
			pages++
		}
	}
	if pages != 7 { // 3 cars + 4 suppliers
		t.Errorf("pages = %d, want 7", pages)
	}
}

func TestRNGBounds(t *testing.T) {
	r := newRNG(0) // zero seed must not wedge the generator
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 8 {
		t.Errorf("poor distribution: %v", seen)
	}
}

func TestSplitStoreRoundRobin(t *testing.T) {
	s := BrochureStore(7, 2, 3, 5)
	parts := SplitStore(s, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	merged := tree.NewStore()
	total := 0
	for _, p := range parts {
		total += p.Len()
		for _, e := range p.Entries() {
			if _, clash := merged.Get(e.Name); clash {
				t.Fatalf("entry %s in two parts", e.Name)
			}
			merged.Put(e.Name, e.Tree)
		}
	}
	if total != s.Len() || merged.Len() != s.Len() {
		t.Fatalf("split lost entries: %d vs %d", total, s.Len())
	}
	// Balanced within one entry.
	for i, p := range parts {
		if d := p.Len() - parts[0].Len(); d < -1 || d > 1 {
			t.Errorf("part %d unbalanced: %d vs %d", i, p.Len(), parts[0].Len())
		}
	}
	if got := SplitStore(s, 0); len(got) != 1 || got[0].Len() != s.Len() {
		t.Errorf("k=0 should degrade to a single full part")
	}
}
