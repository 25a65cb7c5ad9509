// Package workload generates deterministic synthetic data shaped like
// the paper's running example: SGML brochures, the dealer relational
// database, ODMG object stores and matrices. The generators replace
// the OPAL project's proprietary data (see DESIGN.md, substitutions):
// the schemas and DTD are the paper's, only the volume is
// parameterized, so the benchmarks exercise the same code paths at
// any scale.
package workload

import (
	"fmt"
	"strings"

	"yat/internal/relational"
	"yat/internal/tree"
)

// rng is a small deterministic PRNG (xorshift64*), independent of
// math/rand so workloads are stable across Go versions.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *rng) Intn(n int) int { return int(r.next() % uint64(n)) }

var (
	carModels = []string{"Golf", "Polo", "Passat", "Beetle", "Corrado",
		"Vento", "Sharan", "Lupo", "Bora", "Scirocco"}
	cities = []string{"Paris", "Lyon", "Lille", "Nantes", "Rennes",
		"Toulouse", "Nice", "Metz", "Dijon", "Brest"}
	streets = []string{"Bd Lenoir", "Bd Leblanc", "Rue Royale", "Av Foch",
		"Rue des Lilas", "Quai Branly", "Rue de la Paix", "Av Jaures"}
)

// Supplier is one synthetic supplier shared between the SGML and
// relational sources, so the Rule 3 join finds matches.
type Supplier struct {
	SID     int64
	Name    string
	City    string
	Street  string
	Zip     int64
	Tel     string
	Address string // full SGML address: "street, zip city"
}

// Suppliers generates n suppliers.
func Suppliers(n int, seed uint64) []Supplier {
	r := newRNG(seed)
	out := make([]Supplier, n)
	for i := range out {
		city := cities[r.Intn(len(cities))]
		street := streets[r.Intn(len(streets))]
		zip := int64(10000 + r.Intn(89999))
		out[i] = Supplier{
			SID:     int64(i + 1),
			Name:    fmt.Sprintf("Supplier %03d", i+1),
			City:    city,
			Street:  street,
			Zip:     zip,
			Tel:     fmt.Sprintf("01%08d", r.Intn(100000000)),
			Address: fmt.Sprintf("%s, %d %s", street, zip, city),
		}
	}
	return out
}

// Brochure is one synthetic brochure.
type Brochure struct {
	Number    int64
	Title     string
	Year      int64
	Desc      string
	Suppliers []Supplier
}

// Brochures generates n brochures, each citing supsPer suppliers
// drawn from the pool. Roughly one in eight brochures predates 1975
// (exercising Rule 1's predicate).
func Brochures(n, supsPer int, pool []Supplier, seed uint64) []Brochure {
	r := newRNG(seed ^ 0xB10C)
	out := make([]Brochure, n)
	for i := range out {
		year := int64(1976 + r.Intn(22))
		if r.Intn(8) == 0 {
			year = int64(1950 + r.Intn(25))
		}
		b := Brochure{
			Number: int64(i + 1),
			Title:  carModels[r.Intn(len(carModels))],
			Year:   year,
			Desc:   fmt.Sprintf("Edition %d of the dealer brochure", i+1),
		}
		for j := 0; j < supsPer && len(pool) > 0; j++ {
			b.Suppliers = append(b.Suppliers, pool[r.Intn(len(pool))])
		}
		out[i] = b
	}
	return out
}

// SGML renders a brochure as an SGML document conforming to the
// paper's DTD.
func (b Brochure) SGML() string {
	var sb strings.Builder
	sb.WriteString("<brochure>\n")
	fmt.Fprintf(&sb, "  <number>%d</number>\n", b.Number)
	fmt.Fprintf(&sb, "  <title>%s</title>\n", b.Title)
	fmt.Fprintf(&sb, "  <model>%d</model>\n", b.Year)
	fmt.Fprintf(&sb, "  <desc>%s</desc>\n", b.Desc)
	sb.WriteString("  <spplrs>\n")
	for _, s := range b.Suppliers {
		sb.WriteString("    <supplier>\n")
		fmt.Fprintf(&sb, "      <name>%s</name>\n", s.Name)
		fmt.Fprintf(&sb, "      <address>%s</address>\n", s.Address)
		sb.WriteString("    </supplier>\n")
	}
	sb.WriteString("  </spplrs>\n")
	sb.WriteString("</brochure>")
	return sb.String()
}

// Tree converts a brochure directly into its imported YAT form (what
// the SGML wrapper produces with type inference on).
func (b Brochure) Tree() *tree.Node {
	spplrs := tree.Sym("spplrs")
	for _, s := range b.Suppliers {
		spplrs.Add(tree.Sym("supplier",
			tree.Sym("name", tree.Str(s.Name)),
			tree.Sym("address", tree.Str(s.Address))))
	}
	return tree.Sym("brochure",
		tree.Sym("number", tree.IntLeaf(b.Number)),
		tree.Sym("title", tree.Str(b.Title)),
		tree.Sym("model", tree.IntLeaf(b.Year)),
		tree.Sym("desc", tree.Str(b.Desc)),
		spplrs)
}

// BrochureStore imports n brochures over supplier pool size nSup into
// a YAT store named b1..bn.
func BrochureStore(n, supsPer, nSup int, seed uint64) *tree.Store {
	pool := Suppliers(nSup, seed)
	store := tree.NewStore()
	for i, b := range Brochures(n, supsPer, pool, seed) {
		store.Put(tree.PlainName(fmt.Sprintf("b%d", i+1)), b.Tree())
	}
	return store
}

// BrochureDocs renders n brochures as SGML sources named b1..bn.
func BrochureDocs(n, supsPer, nSup int, seed uint64) map[string]string {
	pool := Suppliers(nSup, seed)
	out := map[string]string{}
	for i, b := range Brochures(n, supsPer, pool, seed) {
		out[fmt.Sprintf("b%d", i+1)] = b.SGML()
	}
	return out
}

// DealerDatabase builds the §3.2 relational database over the same
// supplier pool, with one cars row per brochure (so the Rule 3 join
// matches) and a sales fact table.
func DealerDatabase(brochures []Brochure, pool []Supplier, seed uint64) *relational.Database {
	r := newRNG(seed ^ 0xD8)
	supSchema, carSchema, salesSchema := relational.DealerSchemas()
	db := relational.NewDatabase()
	sup := db.MustCreate(supSchema)
	cars := db.MustCreate(carSchema)
	sales := db.MustCreate(salesSchema)
	for _, s := range pool {
		sup.MustInsert(
			relational.IntV(s.SID),
			relational.StrV(s.Name),
			relational.StrV(s.City),
			relational.StrV(s.Street),
			relational.StrV(s.Tel))
	}
	for i, b := range brochures {
		cid := int64(i + 100)
		cars.MustInsert(relational.IntV(cid), relational.IntV(b.Number))
		for _, s := range b.Suppliers {
			sales.MustInsert(
				relational.IntV(s.SID),
				relational.IntV(cid),
				relational.IntV(b.Year),
				relational.IntV(int64(1+r.Intn(500))))
		}
	}
	return db
}

// ConvertBatchSources are the inputs of the convert_batch pipeline at
// seed: 40 SGML brochures named b1..b40 (3 suppliers each, from a pool
// of 20) and their dealer database.
func ConvertBatchSources(seed uint64) (map[string]string, *relational.Database) {
	pool := Suppliers(20, seed)
	brochures := Brochures(40, 3, pool, seed)
	docs := make(map[string]string, len(brochures))
	for i, b := range brochures {
		docs[fmt.Sprintf("b%d", i+1)] = b.SGML()
	}
	return docs, DealerDatabase(brochures, pool, seed)
}

// SelectiveProgram builds a k-rule YATL program over the brochure
// source in which every rule mints an independent Skolem functor
// (Pview1..Pviewk) and no rule feeds another. A query for one view
// slices to exactly one rule, so the program is the worst case for
// full materialization and the best case for demand-driven asks —
// the shape of a mediator serving many narrow client views.
func SelectiveProgram(k int) string {
	var sb strings.Builder
	sb.WriteString("program selective\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&sb, `
rule View%d {
  head Pview%d(SN) = view < -> name -> SN, -> city -> C, -> zip -> Z >
  from Pbr = brochure < -> number -> Num, -> title -> T,
                        -> model -> Year, -> desc -> D,
                        -> spplrs -*> supplier < -> name -> SN,
                                                 -> address -> Add > >
  let C = city(Add)
  let Z = zip(Add)
}
`, i, i)
	}
	return sb.String()
}

// MatrixTree builds an r×c matrix tree (rows r1..rn, columns c1..cm,
// deterministic integer cells) for the Figure 4 transpose benchmark.
func MatrixTree(rows, cols int) *tree.Node {
	m := tree.Sym("mat")
	for i := 1; i <= rows; i++ {
		row := tree.Sym(fmt.Sprintf("r%d", i))
		for j := 1; j <= cols; j++ {
			row.Add(tree.Sym(fmt.Sprintf("c%d", j), tree.IntLeaf(int64(i*1000+j))))
		}
		m.Add(row)
	}
	return m
}

// ODMGStore builds a ground object store of nCars car objects over
// nSup suppliers (string attributes, as the Car Schema declares) for
// the Web-program benchmarks.
func ODMGStore(nCars, nSup, supsPerCar int, seed uint64) *tree.Store {
	r := newRNG(seed ^ 0x0D)
	store := tree.NewStore()
	supNames := make([]tree.Name, nSup)
	pool := Suppliers(nSup, seed)
	for i, s := range pool {
		name := tree.PlainName(fmt.Sprintf("s%d", i+1))
		supNames[i] = name
		store.Put(name, tree.Sym("class",
			tree.Sym("supplier",
				tree.Sym("name", tree.Str(s.Name)),
				tree.Sym("city", tree.Str(s.City)),
				tree.Sym("zip", tree.Str(fmt.Sprintf("%d", s.Zip))))))
	}
	for i := 0; i < nCars; i++ {
		set := tree.Sym("set")
		seen := map[int]bool{}
		for j := 0; j < supsPerCar && nSup > 0; j++ {
			k := r.Intn(nSup)
			if seen[k] {
				continue
			}
			seen[k] = true
			set.Add(tree.RefLeaf(supNames[k]))
		}
		store.Put(tree.PlainName(fmt.Sprintf("c%d", i+1)), tree.Sym("class",
			tree.Sym("car",
				tree.Sym("name", tree.Str(carModels[r.Intn(len(carModels))])),
				tree.Sym("desc", tree.Str(fmt.Sprintf("Car object %d", i+1))),
				tree.Sym("suppliers", set))))
	}
	return store
}

// SplitStore partitions a store round-robin (by sorted entry order)
// into k stores — the shape of one logical input federated across k
// wrapped sources. k < 1 is treated as 1; the parts merge back into
// the original store regardless of k.
func SplitStore(s *tree.Store, k int) []*tree.Store {
	if k < 1 {
		k = 1
	}
	parts := make([]*tree.Store, k)
	for i := range parts {
		parts[i] = tree.NewStore()
	}
	for i, e := range s.Entries() {
		parts[i%k].Put(e.Name, e.Tree)
	}
	return parts
}

// PartitionedProgram builds a k-rule program in which rule i reads its
// own root symbol parti — k independent single-source rule families
// over disjoint data. A refresh that only touches family i's entries
// affects exactly one of the k cached functor groups, which is the
// shape the incremental-refresh benchmark measures: a refresh should
// re-run one group while full re-materialization redoes all k.
func PartitionedProgram(k int) string {
	var sb strings.Builder
	sb.WriteString("program partitioned\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&sb, `
rule Part%d {
  head Ppart%d(N) = item < -> name -> N, -> idx -> I >
  from A = part%d < -> name -> N, -> idx -> I >
}
`, i, i, i)
	}
	return sb.String()
}

// PartitionedEntry builds one entry of family fam for
// PartitionedProgram: a part<fam> tree named p<fam>_<id>.
func PartitionedEntry(fam int, id string, idx int64) (tree.Name, *tree.Node) {
	name := tree.PlainName(fmt.Sprintf("p%d_%s", fam, id))
	t := tree.Sym(fmt.Sprintf("part%d", fam),
		tree.Sym("name", tree.Str(fmt.Sprintf("n%d_%s", fam, id))),
		tree.Sym("idx", tree.IntLeaf(idx)))
	return name, t
}

// PartitionedStore builds per entries for each of the k families of
// PartitionedProgram.
func PartitionedStore(k, per int) *tree.Store {
	store := tree.NewStore()
	for fam := 1; fam <= k; fam++ {
		for j := 0; j < per; j++ {
			n, t := PartitionedEntry(fam, fmt.Sprintf("%04d", j), int64(j))
			store.Put(n, t)
		}
	}
	return store
}
