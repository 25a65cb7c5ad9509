package yat

// Golden outputs for the workloads of the paper's conversions: every
// case's full result — outputs, warnings, unconverted inputs and stats —
// and the Figure 1 pipeline's HTML pages are pinned byte for byte under
// testdata/workloads. A change here means the engine produces different
// data, not just different bookkeeping. YAT_UPDATE_GOLDEN=1 rewrites the
// files.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"yat/internal/workload"
	"yat/internal/yatl"
)

// fingerprint renders everything observable about a run.
func fingerprint(res *Result) string {
	var sb strings.Builder
	sb.WriteString(FormatStore(res.Outputs))
	sb.WriteString("\n--warnings--\n")
	for _, w := range res.Warnings {
		sb.WriteString(w)
		sb.WriteByte('\n')
	}
	sb.WriteString("--unconverted--\n")
	for _, id := range res.Unconverted {
		sb.WriteString(id.Display())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "--stats--\n%+v\n", res.Stats)
	return sb.String()
}

func rule3Store(n int, seed uint64) *Store {
	pool := workload.Suppliers(n/2+2, seed)
	brochures := workload.Brochures(n, 2, pool, seed)
	db := workload.DealerDatabase(brochures, pool, seed)
	store := NewStore()
	for i, br := range brochures {
		store.Put(PlainName(fmt.Sprintf("b%d", i+1)), br.Tree())
	}
	for _, e := range ImportRelational(db).Entries() {
		store.Put(e.Name, e.Tree)
	}
	return store
}

func matrixStore(n int) *Store {
	s := NewStore()
	s.Put(PlainName("m"), workload.MatrixTree(n, n))
	return s
}

// warningStore yields n inputs for the warny program: odd entries
// carry a parseable address, even ones a malformed one that makes
// city() error and drop the binding with a warning.
func warningStore(n int) *Store {
	var sb strings.Builder
	for i := 1; i <= n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "i%d: in -> \"address without locality %d\"\n", i, i)
		} else {
			fmt.Fprintf(&sb, "i%d: in -> \"%d Bd Lenoir, 75%03d Paris\"\n", i, i, i)
		}
	}
	s, err := ParseStore(sb.String())
	if err != nil {
		panic(err)
	}
	return s
}

// checkGolden compares got with testdata/workloads/<name>.golden, first
// rewriting the file when YAT_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "workloads", filepath.FromSlash(name)+".golden")
	if os.Getenv("YAT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
	}
}

func TestWorkloadGoldens(t *testing.T) {
	composed := func(t *testing.T) *Program {
		first, err := ParseProgram(Rules1And2Typed)
		if err != nil {
			t.Fatal(err)
		}
		second, err := ParseProgram(WebRules)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ComposePrograms(first, second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name         string
		src          string // YATL source; empty means prog is built below
		prog         func(t *testing.T) *Program
		inputs       *Store
		wantWarnings bool // the case must actually exercise Warnings
	}{
		{name: "brochures/rules1and2", src: Rules1And2,
			inputs: workload.BrochureStore(40, 3, 12, 42)},
		{name: "brochures/typed", src: Rules1And2Typed,
			inputs: workload.BrochureStore(25, 4, 8, 7)},
		{name: "brochures/rule4-grouping", src: "program p\n" + yatl.Rule4Source,
			inputs: workload.BrochureStore(30, 6, 15, 3)},
		{name: "cardealer/rule3-join", src: "program p\n" + yatl.Rule3Source,
			inputs: rule3Store(24, 7)},
		{name: "web/odmg-to-html", src: WebRules,
			inputs: workload.ODMGStore(20, 11, 3, 11)},
		{name: "matrix/transpose", src: TransposeRule,
			inputs: matrixStore(16)},
		{name: "brochures/composed", prog: composed,
			inputs: workload.BrochureStore(15, 3, 9, 5)},
		// Warning-heavy case: half the inputs make city() fail (binding
		// dropped with a warning), and every output holds a reference
		// to a Skolem no rule defines (dangling-reference warnings).
		// This pins the *order* of Result.Warnings — the other
		// workloads barely warn at all.
		{name: "warnings/dropped-and-dangling", src: `
program warny
rule R {
  head Pout(X) = out < -> city -> C, -> link -> &Pmissing(X) >
  from X = in -> A
  let C = city(A)
}
`,
			inputs: warningStore(16), wantWarnings: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prog *Program
			if tc.prog != nil {
				prog = tc.prog(t)
			} else {
				p, err := ParseProgram(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				prog = p
			}
			res, err := Run(prog, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantWarnings && len(res.Warnings) < 2 {
				t.Fatalf("case meant to pin warning order produced %d warnings", len(res.Warnings))
			}
			checkGolden(t, tc.name, fingerprint(res))
		})
	}

	// The Figure 1 two-step conversion (SGML→ODMG→HTML), exported to
	// HTML pages listed by name.
	t.Run("pipeline/sgml-odmg-html", func(t *testing.T) {
		first, err := ParseProgram(Rules1And2)
		if err != nil {
			t.Fatal(err)
		}
		web, err := ParseProgram(WebRules)
		if err != nil {
			t.Fatal(err)
		}
		mid, err := Run(first, workload.BrochureStore(12, 3, 6, 42))
		if err != nil {
			t.Fatal(err)
		}
		interm := NewStore()
		for _, e := range mid.Outputs.Entries() {
			interm.Put(e.Name, e.Tree)
		}
		res, err := Run(web, interm)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := ExportHTML(res.Outputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(pages))
		for name := range pages {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "== %s ==\n%s\n", name, pages[name])
		}
		checkGolden(t, "pipeline/sgml-odmg-html", sb.String())
	})
}
