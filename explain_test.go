package yat

// Golden EXPLAIN profiles for the library's builtin conversions. The
// trace layer promises that every *count* in a profile is a function
// of the program and inputs alone, so the timing-free rendering is
// byte-identical across runs. These goldens pin the per-rule/per-phase numbers themselves: a
// change here means the engine does different work, not just
// different bookkeeping.

import (
	"testing"

	"yat/internal/workload"
)

const sgml2odmgGolden = `EXPLAIN sgml2odmg
rounds: 2 [6 4]

rule Car  fired=6 kept=9 skolems=6 outputs=6
  match      events=10     items=12
  predicates events=9      items=9
  skolem     events=6      items=6
  construct  events=6      items=6

rule Sup  fired=6 kept=7 skolems=4 outputs=4
  match      events=10     items=12
  functions  events=18     items=18
  predicates events=9      items=7
  skolem     events=4      items=4
  construct  events=4      items=4
  calls      city=9 zip=9
  drops      predicate-false=2
`

const odmg2htmlGolden = `EXPLAIN odmg2html
rounds: 2 [9 24]

rule Web1  fired=9 kept=27 skolems=9 outputs=9
  match      events=33     items=27
  functions  events=27     items=27
  predicates events=27     items=27
  skolem     events=9      items=9
  construct  events=9      items=9
  calls      attr_label=27

rule Web2  fired=20 kept=20 skolems=20 outputs=20
  match      events=20     items=20
  functions  events=20     items=20
  predicates events=20     items=20
  skolem     events=20     items=20
  construct  events=20     items=20
  calls      data_to_string=20

rule Web3  fired=0 kept=0 skolems=0 outputs=0
  match      events=33     items=0

rule Web4  fired=4 kept=6 skolems=4 outputs=4
  match      events=33     items=6
  predicates events=6      items=6
  skolem     events=4      items=4
  construct  events=4      items=4

rule Web5  fired=0 kept=0 skolems=0 outputs=0
  match      events=33     items=0

rule Web6  fired=9 kept=27 skolems=9 outputs=9
  match      events=33     items=27
  predicates events=27     items=27
  skolem     events=9      items=9
  construct  events=9      items=9
`

func TestExplainGolden(t *testing.T) {
	lib := BuiltinLibrary()
	cases := []struct {
		program string
		inputs  *Store
		want    string
	}{
		{"sgml2odmg", workload.BrochureStore(6, 2, 4, 7), sgml2odmgGolden},
		{"odmg2html", workload.ODMGStore(5, 4, 2, 3), odmg2htmlGolden},
	}
	for _, tc := range cases {
		t.Run(tc.program, func(t *testing.T) {
			prog, ok := lib.Program(tc.program)
			if !ok {
				t.Fatalf("builtin %s missing", tc.program)
			}
			profile := NewTraceProfile()
			if _, err := Run(prog, tc.inputs, &RunOptions{Trace: profile}); err != nil {
				t.Fatal(err)
			}
			if got := profile.Text(false); got != tc.want {
				t.Errorf("profile diverges:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestExplainTimingMonotone sanity-checks the timing path: with
// timing enabled the run total must cover the per-phase wall times.
func TestExplainTimingMonotone(t *testing.T) {
	prog, _ := BuiltinLibrary().Program("sgml2odmg")
	profile := NewTraceProfile()
	if _, err := Run(prog, workload.BrochureStore(10, 3, 6, 1), &RunOptions{Trace: profile}); err != nil {
		t.Fatal(err)
	}
	total := profile.Wall()
	if total <= 0 {
		t.Fatal("run total wall time missing")
	}
	for _, r := range profile.Rules() {
		for ph, pp := range r.Phases {
			if pp.Wall < 0 {
				t.Errorf("rule %s phase %d: negative wall %v", r.Rule, ph, pp.Wall)
			}
			if pp.Wall > total {
				t.Errorf("rule %s phase %d: wall %v exceeds run total %v", r.Rule, ph, pp.Wall, total)
			}
		}
	}
}
