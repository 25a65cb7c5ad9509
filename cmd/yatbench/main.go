// Yatbench regenerates the experiment series of EXPERIMENTS.md: for
// every figure of the paper it runs the corresponding conversion at a
// sweep of sizes and prints measured counts and timings. The paper
// itself reports no numbers (its evaluation is qualitative), so the
// series here establish the *shapes*: Skolem deduplication, join
// scaling, and — the paper's efficiency claim for §4.3 — composed
// programs beating the sequential pipeline by skipping the
// intermediate model.
//
// Usage: yatbench [-quick]
//
// System performance — serving, caches, the parallel engine — is the
// repo benchmark's job (go run ./bench), not this harness's.
package main

import (
	"flag"
	"fmt"
	"time"

	"yat"
	"yat/internal/tree"
	"yat/internal/workload"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

func main() {
	flag.Parse()
	e1Scenario()
	e3Rule1()
	e5Rule3Join()
	e7Transpose()
	e8WebProgram()
	e11ComposedVsSequential()
}

// timed runs fn repeatedly and returns the best wall time.
func timed(fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func sizes(quickSizes, fullSizes []int) []int {
	if *quick {
		return quickSizes
	}
	return fullSizes
}

func mustProgram(src string) *yat.Program {
	p, err := yat.ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

func mustRun(p *yat.Program, s *yat.Store) *yat.Result {
	r, err := yat.Run(p, s)
	if err != nil {
		panic(err)
	}
	return r
}

// E1: the Figure 1 scenario end to end.
func e1Scenario() {
	fmt.Println("E1  Figure 1 scenario: SGML + relational → ODMG → HTML")
	fmt.Println("    brochures  suppliers  objects  pages  time")
	for _, n := range sizes([]int{5, 20}, []int{5, 20, 100, 400}) {
		nSup := n / 2
		if nSup < 2 {
			nSup = 2
		}
		var objects, pages int
		d := timed(func() {
			inputs := workload.BrochureStore(n, 3, nSup, 42)
			mid := mustRun(mustProgram(yat.Rules1And2), inputs)
			interm := yat.NewStore()
			for _, e := range mid.Outputs.Entries() {
				interm.Put(e.Name, e.Tree)
			}
			objects = interm.Len()
			web := mustRun(mustProgram(yat.WebRules), interm)
			out, err := yat.ExportHTML(web.Outputs, nil)
			if err != nil {
				panic(err)
			}
			pages = len(out)
		})
		fmt.Printf("    %9d  %9d  %7d  %5d  %v\n", n, nSup, objects, pages, d)
	}
	fmt.Println()
}

// E3: Figure 3 / Rule 1 — Skolem deduplication keeps the output count
// at the distinct-supplier count, not the binding count.
func e3Rule1() {
	fmt.Println("E3  Rule 1 (Figure 3): Skolem dedup across brochures")
	fmt.Println("    brochures  pool  bindings  supplier objects  time")
	prog := mustProgram("program p\n" + rule1Source())
	for _, n := range sizes([]int{10, 100}, []int{10, 100, 1000, 4000}) {
		pool := 20
		store := workload.BrochureStore(n, 3, pool, 42)
		var res *yat.Result
		d := timed(func() { res = mustRun(prog, store) })
		fmt.Printf("    %9d  %4d  %8d  %16d  %v\n",
			n, pool, res.Stats.Bindings, res.Outputs.Len(), d)
	}
	fmt.Println()
}

// E5: Rule 3 — the heterogeneous join between brochures and the
// relational database.
func e5Rule3Join() {
	fmt.Println("E5  Rule 3: heterogeneous SGML × relational join")
	fmt.Println("    brochures  rel rows  cars out  time")
	prog := mustProgram("program p\n" + rule3Source())
	for _, n := range sizes([]int{10, 50}, []int{10, 50, 200, 800}) {
		pool := workload.Suppliers(n/2+2, 7)
		brochures := workload.Brochures(n, 2, pool, 7)
		db := workload.DealerDatabase(brochures, pool, 7)
		store := yat.NewStore()
		for i, b := range brochures {
			store.Put(yat.PlainName(fmt.Sprintf("b%d", i+1)), b.Tree())
		}
		for _, e := range yat.ImportRelational(db).Entries() {
			store.Put(e.Name, e.Tree)
		}
		rows := 0
		for _, name := range db.Names() {
			t, _ := db.Table(name)
			rows += t.Len()
		}
		var res *yat.Result
		d := timed(func() { res = mustRun(prog, store) })
		cars := 0
		for _, e := range res.Outputs.Entries() {
			if e.Name.Functor == "Pcar" {
				cars++
			}
		}
		fmt.Printf("    %9d  %8d  %8d  %v\n", n, rows, cars, d)
	}
	fmt.Println()
}

// E7: Figure 4 / Rule 5 — matrix transpose via index edges.
func e7Transpose() {
	fmt.Println("E7  Rule 5 (Figure 4): matrix transpose")
	fmt.Println("    matrix      cells  time")
	prog := mustProgram(yat.TransposeRule)
	for _, n := range sizes([]int{8, 32}, []int{8, 32, 64, 128}) {
		store := yat.NewStore()
		store.Put(yat.PlainName("m"), workload.MatrixTree(n, n))
		d := timed(func() { mustRun(prog, store) })
		fmt.Printf("    %4dx%-4d  %7d  %v\n", n, n, n*n, d)
	}
	fmt.Println()
}

// E8: the Web program — safe recursion over object graphs.
func e8WebProgram() {
	fmt.Println("E8  Web1–Web6: ODMG → HTML (safe-recursive program)")
	fmt.Println("    cars  suppliers  pages  elements  time")
	prog := mustProgram(yat.WebRules)
	for _, n := range sizes([]int{5, 25}, []int{5, 25, 100, 400}) {
		store := workload.ODMGStore(n, n/2+1, 3, 11)
		var res *yat.Result
		d := timed(func() { res = mustRun(prog, store) })
		pages, elems := 0, 0
		for _, e := range res.Outputs.Entries() {
			switch e.Name.Functor {
			case "HtmlPage":
				pages++
			case "HtmlElement":
				elems++
			}
		}
		fmt.Printf("    %4d  %9d  %5d  %8d  %v\n", n, n/2+1, pages, elems, d)
	}
	fmt.Println()
}

// E11: the §4.3 claim — the composed program avoids materializing the
// intermediate model and beats the sequential pipeline.
func e11ComposedVsSequential() {
	fmt.Println("E11 Composition (§4.3): composed vs sequential SGML → HTML")
	fmt.Println("    brochures  sequential  composed  speedup  intermediates skipped")
	first := mustProgram(yat.Rules1And2Typed)
	second := mustProgram(yat.WebRules)
	composed, err := yat.ComposePrograms(first, second, nil)
	if err != nil {
		panic(err)
	}
	for _, n := range sizes([]int{10, 50}, []int{10, 50, 200, 800}) {
		inputs := workload.BrochureStore(n, 3, n/2+2, 5)
		var intermediates int
		seq := timed(func() {
			mid := mustRun(first, inputs)
			interm := tree.NewStore()
			for _, e := range mid.Outputs.Entries() {
				interm.Put(e.Name, e.Tree)
			}
			intermediates = interm.Len()
			mustRun(second, interm)
		})
		direct := timed(func() { mustRun(composed, inputs) })
		fmt.Printf("    %9d  %10v  %8v  %6.2fx  %d\n",
			n, seq, direct, float64(seq)/float64(direct), intermediates)
	}
	fmt.Println()
}

func rule1Source() string {
	p, _ := yat.BuiltinLibrary().Program("sgml2odmg")
	r, _ := p.Rule("Sup")
	return r.String()
}

func rule3Source() string {
	return `
rule CarJoin {
  head Pcar(Cid) = class -> car < -> name -> T, -> desc -> D,
                                   -> suppliers -> set -*> &Psup(Sid) >
  from Pbr = brochure < -> number -> Num, -> title -> T, -> model -> Year, -> desc -> D,
                        -> spplrs -*> supplier < -> name -> SN, -> address -> Add > >
  from Rsuppliers = suppliers -*> row < -> sid -> Sid, -> name -> SN, -> city -> C,
                                         -> address -> Add2, -> tel -> Tel >
  from Rcars = cars -*> row < -> cid -> Cid, -> broch_num -> Num >
  where sameaddress(Add, C, Add2)
}
`
}
