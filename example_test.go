package yat_test

// Runnable godoc examples for the public API, each pinned to the
// paper's expected output.

import (
	"fmt"

	"yat"
	"yat/internal/pattern"
)

const exampleBrochure = `<brochure>
  <number>1</number>
  <title>Golf</title>
  <model>1995</model>
  <desc>Sympa</desc>
  <spplrs>
    <supplier><name>VW center</name><address>Bd Lenoir, 75005 Paris</address></supplier>
  </spplrs>
</brochure>`

// Converting an SGML brochure with the paper's Rules 1 and 2.
func ExampleRun() {
	prog, _ := yat.ParseProgram(yat.Rules1And2)
	inputs, _ := yat.ImportSGML(map[string]string{"b1": exampleBrochure}, nil)
	result, _ := yat.Run(prog, inputs, nil)
	fmt.Print(yat.FormatStore(result.Outputs))
	// Output:
	// Psup("VW center"): class < supplier < name < "VW center" >, city < "Paris" >, zip < 75005 > > >
	// Pcar(&b1): class < car < name < "Golf" >, desc < "Sympa" >, suppliers < set < &Psup("VW center") > > > >
}

// A trace profile of a run: the EXPLAIN table without wall times is
// the same on every run of the same program over the same inputs.
func ExampleNewTraceProfile() {
	prog, _ := yat.ParseProgram(yat.Rules1And2)
	inputs, _ := yat.ImportSGML(map[string]string{"b1": exampleBrochure}, nil)
	profile := yat.NewTraceProfile()
	if _, err := yat.Run(prog, inputs, yat.WithTrace(profile)); err != nil {
		fmt.Println(err)
	}
	fmt.Print(profile.Text(false))
	// Output:
	// EXPLAIN sgml2odmg
	// rounds: 2 [1 1]
	//
	// rule Car  fired=1 kept=1 skolems=1 outputs=1
	//   match      events=2      items=1
	//   predicates events=1      items=1
	//   skolem     events=1      items=1
	//   construct  events=1      items=1
	//
	// rule Sup  fired=1 kept=1 skolems=1 outputs=1
	//   match      events=2      items=1
	//   functions  events=2      items=2
	//   predicates events=1      items=1
	//   skolem     events=1      items=1
	//   construct  events=1      items=1
	//   calls      city=1 zip=1
}

// The Figure 2 instantiation chain: more specific models instantiate
// more general ones.
func ExampleInstanceOf() {
	fmt.Println(yat.InstanceOf(yat.CarSchemaModel(), yat.ODMGModel()))
	fmt.Println(yat.InstanceOf(yat.ODMGModel(), yat.YatModel()))
	// The relation is not symmetric:
	fmt.Println(yat.InstanceOf(yat.YatModel(), yat.ODMGModel()) != nil)
	// Output:
	// <nil>
	// <nil>
	// true
}

// Rule 5 transposes a matrix through index edges (Figure 4).
func ExampleRun_transpose() {
	prog, _ := yat.ParseProgram(yat.TransposeRule)
	store := yat.NewStore()
	m, _ := yat.ParseTree(`sales < jan < golf < 10 >, polo < 20 > >,
	                               feb < golf < 30 >, polo < 40 > > >`)
	store.Put(yat.PlainName("m"), m)
	result, _ := yat.Run(prog, store, nil)
	out, _ := result.Outputs.Get(yat.SkolemName("New", yat.Ref{Name: yat.PlainName("m")}))
	fmt.Println(out)
	// Output:
	// sales < golf < jan < 10 >, feb < 30 > >, polo < jan < 20 >, feb < 40 > > >
}

// Instantiating the generic Web program onto the Pcar pattern derives
// rule WebCar (§4.1).
func ExampleInstantiate() {
	web, _ := yat.ParseProgram(yat.WebRules)
	env := yat.CarSchemaModel().Merge(yat.ODMGModel())
	derived, _ := yat.Instantiate(web, pattern.PcarPattern(), env)
	rule, _ := derived.Rule("Web1_Pcar")
	fmt.Println(rule.Head.Functor, "keyed by", rule.Head.Args[0].Var)
	fmt.Println("body patterns:", len(rule.Body))
	// Output:
	// HtmlPage keyed by Pcar
	// body patterns: 2
}

// Composing SGML→ODMG with ODMG→HTML yields a one-step program whose
// rules never mention the intermediate objects (§4.3).
func ExampleComposePrograms() {
	first, _ := yat.ParseProgram(yat.Rules1And2Typed)
	second, _ := yat.ParseProgram(yat.WebRules)
	composed, err := yat.ComposePrograms(first, second)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range composed.Rules {
		fmt.Println(r.Name)
	}
	// Output:
	// Sup_Web1
	// Sup_Web6
	// Car_Web1
	// Car_Web6
}

// A mediator answers pattern queries over the virtual target.
func ExampleNewMediator() {
	prog, _ := yat.ParseProgram(yat.Rules1And2)
	inputs, _ := yat.ImportSGML(map[string]string{"b1": exampleBrochure}, nil)
	m := yat.NewMediator(prog, inputs, nil)
	answers, _ := m.Ask(`class -> supplier < -> name -> N, -> city -> C, -> zip -> Z >`, "Psup")
	for _, a := range answers {
		fmt.Println(a.Binding["N"].Display(), a.Binding["C"].Display(), a.Binding["Z"].Display())
	}
	// Output:
	// "VW center" "Paris" 75005
}

// Signature inference recovers variable types from function
// signatures and predicates (§3.5).
func ExampleInfer() {
	prog, _ := yat.ParseProgram(yat.Rules1And2Typed)
	err := yat.CheckOutput(prog, nil, yat.ODMGModel())
	fmt.Println("ODMG-compliant output:", err == nil)
	// Output:
	// ODMG-compliant output: true
}
