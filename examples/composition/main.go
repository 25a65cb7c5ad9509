// Composition reproduces §4.3: the SGML → ODMG program is composed
// with the ODMG → HTML program into a single SGML → HTML conversion
// that never materializes the intermediate objects — the paper's Rule
// (2+WebCar'). The example prints the fused rules, runs both the
// composed program and the two-step pipeline, and shows they publish
// the same pages.
//
// Run with: go run ./examples/composition
package main

import (
	"fmt"
	"log"

	"yat"
	"yat/internal/workload"
)

func main() {
	first, err := yat.ParseProgram(yat.Rules1And2Typed)
	if err != nil {
		log.Fatal(err)
	}
	second, err := yat.ParseProgram(yat.WebRules)
	if err != nil {
		log.Fatal(err)
	}

	// The §4.3 compatibility check: M2 must be an instance of M2'.
	if err := yat.Compatible(first, second, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("signatures compatible: out(sgml2odmg) ⊑ in(odmg2html)")

	composed, err := yat.ComposePrograms(first, second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncomposed program %q: %d fused rules\n\n", composed.Name, len(composed.Rules))
	if rule, ok := composed.Rule("Car_Web1"); ok {
		fmt.Println("— Rule (2+WebCar'): car pages straight from brochures —")
		fmt.Println(rule.String())
	}

	inputs := workload.BrochureStore(5, 2, 4, 99)

	// One step.
	direct, err := yat.Run(composed, inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	directPages, _ := yat.ExportHTML(direct.Outputs, nil)

	// Two steps, materializing the ODMG objects in between.
	mid, err := yat.Run(first, inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	intermediate := yat.NewStore()
	for _, e := range mid.Outputs.Entries() {
		intermediate.Put(e.Name, e.Tree)
	}
	seq, err := yat.Run(second, intermediate, nil)
	if err != nil {
		log.Fatal(err)
	}
	seqPages, _ := yat.ExportHTML(seq.Outputs, nil)

	fmt.Printf("composed:  %d pages, %d intermediate objects materialized\n",
		len(directPages), 0)
	fmt.Printf("pipeline:  %d pages, %d intermediate objects materialized\n",
		len(seqPages), intermediate.Len())
	if len(directPages) == len(seqPages) {
		fmt.Println("→ same pages, one conversion step instead of two")
	}
}
