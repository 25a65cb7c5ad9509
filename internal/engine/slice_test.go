package engine

import (
	"slices"
	"strings"
	"testing"

	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func ruleNames(rules []*yatl.Rule) string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	return strings.Join(names, ",")
}

// Typed Rule 2's recursive-looking &Psup(SN) argument is annotated
// SN : string — an atomic mint — and Rule 1's body cannot match a
// leaf, so a Psup query needs Rule 1 alone.
func TestComputeSliceTypedProgram(t *testing.T) {
	prog := yatl.MustParse(yatl.AnnotatedSGMLToODMGSource)
	sup := ComputeSlice(prog, "Psup")
	if got := ruleNames(sup.Construct); got != "Sup" {
		t.Errorf("Psup construct = %s, want Sup", got)
	}
	if len(sup.Support) != 0 {
		t.Errorf("Psup support = %s, want none", ruleNames(sup.Support))
	}
	car := ComputeSlice(prog, "Pcar")
	if got := ruleNames(car.Construct); got != "Car" {
		t.Errorf("Pcar construct = %s, want Car", got)
	}
	if len(car.Support) != 0 {
		t.Errorf("Pcar support = %s, want none", ruleNames(car.Support))
	}
}

// Untyped Rule 2 mints &Psup(SN) from an unannotated leaf — the
// analysis cannot bound the minted shape, so Rule 2 conservatively
// joins a Psup slice as a support rule (activation discovery only).
func TestComputeSliceUntypedSupport(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	sup := ComputeSlice(prog, "Psup")
	if got := ruleNames(sup.Construct); got != "Sup" {
		t.Errorf("Psup construct = %s, want Sup", got)
	}
	if got := ruleNames(sup.Support); got != "Car" {
		t.Errorf("Psup support = %s, want Car", got)
	}
	if !sup.Constructs("Sup") || sup.Constructs("Car") || !sup.Includes("Car") {
		t.Error("construct/include predicates inconsistent")
	}
}

// The Web program's pages dereference ^HtmlElement, and every element
// rule mints arbitrary subtrees, so both directions pull in (almost)
// everything — recursion defeats slicing, by design.
func TestComputeSliceWebProgram(t *testing.T) {
	prog := yatl.MustParse(yatl.WebProgramSource)
	page := ComputeSlice(prog, "HtmlPage")
	if len(page.Construct) != len(prog.Rules) || len(page.Support) != 0 {
		t.Errorf("HtmlPage slice = %s, want every rule constructed", page)
	}
	elem := ComputeSlice(prog, "HtmlElement")
	if elem.Rules() != len(prog.Rules) {
		t.Errorf("HtmlElement slice has %d rules, want %d", elem.Rules(), len(prog.Rules))
	}
	if got := ruleNames(elem.Support); got != "Web1" {
		t.Errorf("HtmlElement support = %s, want Web1", got)
	}
	if len(elem.Construct) != len(prog.Rules)-1 {
		t.Errorf("HtmlElement slice constructs %d rules, want 5 of 6", len(elem.Construct))
	}
}

func TestComputeSliceEdgeCases(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	if sl := ComputeSlice(prog); len(sl.Construct) != 2 || sl.Rules() != 2 {
		t.Errorf("no-functor slice = %s, want full", sl)
	}
	if sl := ComputeSlice(prog, "Nope"); sl.Rules() != 0 {
		t.Errorf("unknown functor slice = %s, want empty", sl)
	}
	sel := yatl.MustParse(workload.SelectiveProgram(8))
	if sl := ComputeSlice(sel, "Pview3"); ruleNames(sl.Construct) != "View3" || len(sl.Support) != 0 {
		t.Errorf("selective slice = %s, want View3 alone", sl)
	}
}

// filterFunctors keeps a store's entries for the given functors, in
// sorted order so two stores with different insertion orders render
// identically.
func filterFunctors(s *tree.Store, functors map[string]bool) *tree.Store {
	out := tree.NewStore()
	for _, e := range s.SortedEntries() {
		if functors[e.Name.Functor] {
			out.Put(e.Name, e.Tree)
		}
	}
	return out
}

// The correctness bar of demand-driven evaluation: for every builtin
// program and every functor, the slice run's outputs for the slice's
// closure are byte-identical to the full run's.
func TestRunSliceMatchesFullRun(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		inputs *tree.Store
	}{
		{"sgml2odmg", yatl.SGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42)},
		{"sgml2odmgTyped", yatl.AnnotatedSGMLToODMGSource, workload.BrochureStore(8, 2, 5, 42)},
		{"sgml2odmgPrime", yatl.SGMLToODMGPrimeSource, workload.BrochureStore(8, 2, 5, 42)},
		{"odmg2html", yatl.WebProgramSource, workload.ODMGStore(5, 3, 2, 7)},
		{"selective", workload.SelectiveProgram(6), workload.BrochureStore(6, 2, 5, 11)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := yatl.MustParse(c.src)
			full, err := Run(prog, c.inputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			functors := map[string]bool{}
			for _, r := range prog.Rules {
				if !r.Exception {
					functors[r.Head.Functor] = true
				}
			}
			for f := range functors {
				sl := ComputeSlice(prog, f)
				closure := map[string]bool{}
				for _, g := range sl.Closure {
					closure[g] = true
				}
				want := tree.FormatStore(filterFunctors(full.Outputs, closure))
				res, err := RunSlice(nil, prog, c.inputs, sl)
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				got := tree.FormatStore(filterFunctors(res.Outputs, closure))
				if got != want {
					t.Errorf("%s: slice outputs differ from full run\n got:\n%s\nwant:\n%s", f, got, want)
				}
				// A slice of another program value, here the rules in
				// reverse, runs as this program's slice of its functors.
				reversed := yatl.MustParse(c.src)
				slices.Reverse(reversed.Rules)
				if other, err := RunSlice(nil, prog, c.inputs, ComputeSlice(reversed, f)); err != nil ||
					tree.FormatStore(other.Outputs) != tree.FormatStore(res.Outputs) {
					t.Errorf("%s: the slice of the reversed program ran otherwise (%v)", f, err)
				}
				// The slice constructs nothing outside its closure.
				for _, e := range res.Outputs.Entries() {
					if !closure[e.Name.Functor] {
						t.Errorf("%s: stray output %s outside closure", f, e.Name)
					}
				}
			}
		})
	}
}

// A slice run reports its slice through the trace layer.
func TestRunSliceTraceEvent(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := workload.BrochureStore(2, 2, 3, 5)
	p := trace.NewProfile()
	if _, err := RunSlice(nil, prog, inputs, ComputeSlice(prog, "Psup"), WithTrace(p)); err != nil {
		t.Fatal(err)
	}
	if p.Slices() != 1 {
		t.Errorf("profile recorded %d slices, want 1", p.Slices())
	}
	var rendered strings.Builder
	if err := p.Render(&rendered, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered.String(), "slices: 1 rules=2") {
		t.Errorf("render missing slice line:\n%s", rendered.String())
	}
}
