// Mediatorquery demonstrates the mediator-side querying the paper
// motivates ("a complementary goal is to be able to query it without
// fully materializing it", §1): a Mediator wraps the composed
// SGML → HTML program and answers pattern queries over the virtual
// target, with the sources staying in their original formats and the
// intermediate ODMG model never existing.
//
// Run with: go run ./examples/mediatorquery
package main

import (
	"fmt"
	"log"

	"yat"
	"yat/internal/workload"
)

func main() {
	// Sources: SGML brochures only.
	inputs := workload.BrochureStore(6, 2, 4, 77)

	// The virtual target: HTML pages, via the composed program — no
	// intermediate object store.
	first, err := yat.ParseProgram(yat.Rules1And2Typed)
	if err != nil {
		log.Fatal(err)
	}
	second, err := yat.ParseProgram(yat.WebRules)
	if err != nil {
		log.Fatal(err)
	}
	composed, err := yat.ComposePrograms(first, second)
	if err != nil {
		log.Fatal(err)
	}

	m := yat.NewMediator(composed, inputs, nil)

	// Query 1: every page title in the virtual target.
	answers, err := m.Ask(`html < -> head -> title -> T, -> body -*> B >`, "HtmlPage")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the virtual target holds %d pages:\n", len(pagesOf(answers)))
	for _, a := range pagesOf(answers) {
		fmt.Printf("  %-40s title=%s\n", a.Name, a.Binding["T"].Display())
	}

	// Query 2: the city shown on each supplier page.
	cities, err := m.Ask(`html < -> head -> title -> supplier,
	                             -> body < -> H, -> ul < -> L1,
	                                          -> li < -> "city: ", -> C >,
	                                          -> L3 > > >`, "HtmlPage")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncities on supplier pages: %d\n", len(cities))
	for _, a := range cities {
		fmt.Printf("  %-30s city=%s\n", a.Name, a.Binding["C"].Display())
	}

	s := m.Stats()
	fmt.Printf("\nmaterialized once: %d outputs for %d source inputs (run stats: %+v; %d asks, %d cache hits)\n",
		s.Run.Outputs, inputs.Len(), s.Run, s.Asks, s.CacheHits)
}

// pagesOf deduplicates answers per page (one binding per body item
// otherwise).
func pagesOf(answers []yat.MediatorAnswer) []yat.MediatorAnswer {
	seen := map[string]bool{}
	var out []yat.MediatorAnswer
	for _, a := range answers {
		if seen[a.Name.Key()] {
			continue
		}
		seen[a.Name.Key()] = true
		out = append(out, a)
	}
	return out
}
