// Weblayout reproduces §4.1: the generic ODMG → HTML program (rules
// Web1–Web6) is instantiated onto the Pcar pattern, deriving rule
// WebCar automatically; the derived rule is then customized into
// newWebCar (suppliers hidden), exactly as a programmer would adapt a
// library program instead of starting from scratch.
//
// Run with: go run ./examples/weblayout
package main

import (
	"fmt"
	"log"

	"yat"
	"yat/internal/pattern"
)

func main() {
	web, err := yat.ParseProgram(yat.WebRules)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generic program: %d rules (Web1–Web6)\n\n", len(web.Rules))

	// ── Instantiation: derive WebCar ───────────────────────────────
	env := yat.CarSchemaModel().Merge(yat.ODMGModel())
	derived, err := yat.Instantiate(web, pattern.PcarPattern(), env)
	if err != nil {
		log.Fatal(err)
	}
	webCar, ok := derived.Rule("Web1_Pcar")
	if !ok {
		log.Fatal("WebCar derivation missing")
	}
	fmt.Println("— derived rule WebCar (automatic) —")
	fmt.Println(webCar.String())

	// ── Customization: newWebCar hides the suppliers ───────────────
	custom := derived.Clone()
	rule, _ := custom.Rule("Web1_Pcar")
	rule.Name = "newWebCar"
	body := rule.Head.Tree.Edges[1].To // html -> body
	ul := body.Edges[1].To             // body -> ul
	ul.Edges = ul.Edges[:2]            // drop the suppliers item
	rule.Body = rule.Body[:1]          // drop the supplier join pattern
	fmt.Println("— customized rule newWebCar —")
	fmt.Println(rule.String())

	// ── Combination: specific rules first ──────────────────────────
	// Combined with the general program, WebCar handles car objects
	// while Web1 keeps handling everything else (§4.2).
	combined := yat.Combine("webCustom", custom, web)

	inputs, err := yat.ParseStore(`
	  c1: class < car < name < "Golf" >, desc < "A classic compact car" >,
	                     suppliers < set < &s1 > > > >
	  s1: class < supplier < name < "VW center" >, city < "Paris" >, zip < "75005" > > >
	`)
	if err != nil {
		log.Fatal(err)
	}
	result, err := yat.Run(combined, inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	pages, err := yat.ExportHTML(result.Outputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("— pages with the customized layout —")
	for url, page := range pages {
		fmt.Printf("%s:\n%s\n", url, page)
	}
}
