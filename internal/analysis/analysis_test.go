package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"yat/internal/library"
	"yat/internal/yatl"
)

// want is one diagnostic the fixture corpus must produce, pinned to an
// exact source position.
type want struct {
	category string
	line     int
	col      int
	severity Severity
}

// fixtureWants maps every deliberately broken program under testdata/
// to the diagnostics its defects must trigger. Each analyzer has at
// least one dedicated fixture.
var fixtureWants = map[string][]want{
	"range_restriction.yatl": {
		{"range-restriction", 4, 8, SeverityError},  // Skolem argument X unbound
		{"range-restriction", 4, 32, SeverityError}, // head variable Y unbound
	},
	"unused_let.yatl": {
		{"unused-var", 6, 7, SeverityWarning}, // let U = city(T) never used
	},
	"dup_rule.yatl": {
		{"rule-names", 8, 6, SeverityError},  // second rule R shadows the first
		{"rule-names", 13, 7, SeverityError}, // order constraint names undefined rule
	},
	"skolem_arity.yatl": {
		{"skolem-arity", 9, 46, SeverityError}, // &P(SN, B) but P is defined with 1 arg
	},
	"undef_ref.yatl": {
		{"undefined-ref", 4, 32, SeverityError}, // ^Nope(B) dereferences nothing
	},
	"pred_sanity.yatl": {
		{"pred-sanity", 6, 9, SeverityError},   // ordering compare on a structural var
		{"pred-sanity", 7, 9, SeverityWarning}, // 1 == 2 compares two constants
		{"deadrule", 7, 9, SeverityWarning},    // ... so the rule can never fire
	},
	"collection_order.yatl": {
		{"collection", 4, 20, SeverityError}, // criterion Z not below the ordered edge
	},
	"collection_index.yatl": {
		{"collection", 4, 46, SeverityError}, // index edge under a grouping edge
	},
	"exception_unreach.yatl": {
		{"exception", 8, 6, SeverityWarning}, // covering rule makes Fallback dead
	},
	"safety_cycle.yatl": {
		{"safety", 4, 8, SeverityError}, // Psup/Pcar deref cycle, not safe-recursive
	},
	"typing_clash.yatl": {
		{"typing", 3, 6, SeverityError}, // T is string and compared to an int
	},
	"coverage_gap.yatl": {
		{"coverage", 3, 7, SeverityInfo}, // model pattern Memo matched by no rule
	},
	"unreachable_cycle.yatl": {
		{"deadrule", 13, 6, SeverityWarning}, // CycA only demanded by CycB
		{"deadrule", 18, 6, SeverityWarning}, // CycB only demanded by CycA
	},
	"label_functor.yatl": {
		{"pred-sanity", 11, 9, SeverityWarning}, // 1 == 2 compares two constants
		{"deadrule", 11, 9, SeverityWarning},    // ... so ViewB can never fire
	},
	"skolem_label_collision.yatl": {
		{"pred-sanity", 11, 9, SeverityWarning}, // 2 < 1 compares two constants
		{"deadrule", 11, 9, SeverityWarning},    // ... so Dead can never fire
	},
}

func parseFile(t *testing.T, path string) *yatl.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	prog, err := yatl.Parse(string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return prog
}

// TestFixtureCorpus runs the full analyzer suite over each broken
// fixture and asserts the expected diagnostics at their exact
// positions. Unexpected findings at or above the worst expected
// severity fail the test, so fixtures stay focused on one defect.
func TestFixtureCorpus(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".yatl" {
			continue
		}
		seen[e.Name()] = true
	}
	for name := range fixtureWants {
		if !seen[name] {
			t.Errorf("fixture %s listed in fixtureWants but missing from testdata/", name)
		}
	}
	for name := range seen {
		if _, ok := fixtureWants[name]; !ok {
			t.Errorf("testdata/%s has no expected diagnostics: add it to fixtureWants", name)
		}
	}

	for name, wants := range fixtureWants {
		t.Run(name, func(t *testing.T) {
			prog := parseFile(t, filepath.Join("testdata", name))
			diags, err := Run(prog, DefaultAnalyzers())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range wants {
				if !hasDiag(diags, w) {
					t.Errorf("missing diagnostic [%s] %d:%d %s\ngot:\n%s",
						w.category, w.line, w.col, w.severity, render(diags))
				}
			}
			// No stray findings in the expected severity band: every
			// diagnostic at or above the least severe expectation must
			// itself be expected.
			floor := wants[0].severity
			for _, w := range wants[1:] {
				if w.severity < floor {
					floor = w.severity
				}
			}
			for _, d := range diags {
				if d.Severity < floor {
					continue
				}
				if !expected(wants, d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

func hasDiag(diags []Diagnostic, w want) bool {
	for _, d := range diags {
		if d.Category == w.category && d.Pos.Line == w.line && d.Pos.Col == w.col && d.Severity == w.severity {
			return true
		}
	}
	return false
}

func expected(wants []want, d Diagnostic) bool {
	for _, w := range wants {
		if d.Category == w.category && d.Pos.Line == w.line && d.Pos.Col == w.col && d.Severity == w.severity {
			return true
		}
	}
	return false
}

func render(diags []Diagnostic) string {
	s := ""
	for _, d := range diags {
		s += "  " + d.String() + "\n"
	}
	if s == "" {
		s = "  (no diagnostics)\n"
	}
	return s
}

// TestBuiltinProgramsClean guards the other half of the acceptance
// bar: the paper's own programs must pass the analyzer suite with
// nothing at warning level or above.
func TestBuiltinProgramsClean(t *testing.T) {
	lib := library.Builtin()
	for _, name := range lib.Programs() {
		prog, _ := lib.Program(name)
		diags, err := Run(prog, DefaultAnalyzers())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, d := range diags {
			if d.Severity >= SeverityWarning {
				t.Errorf("builtin program %s: unexpected %s", name, d)
			}
		}
	}
}

// TestFixtureSourcesClean runs the suite over the remaining yatl
// package fixtures that are expected to be well-formed.
func TestFixtureSourcesClean(t *testing.T) {
	for _, src := range []struct{ name, text string }{
		{"Rule1", yatl.Rule1Source},
		{"SGMLToODMG", yatl.SGMLToODMGSource},
		{"AnnotatedSGMLToODMG", yatl.AnnotatedSGMLToODMGSource},
		{"Web", yatl.WebProgramSource},
	} {
		prog, err := yatl.Parse(src.text)
		if err != nil {
			t.Fatalf("parse %s: %v", src.name, err)
		}
		diags, err := Run(prog, DefaultAnalyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if d.Severity >= SeverityWarning {
				t.Errorf("%s: unexpected %s", src.name, d)
			}
		}
	}
}

// TestCyclicProgramTripsSafety pins the safety adapter to the yatl
// package's canonical unsafe program.
func TestCyclicProgramTripsSafety(t *testing.T) {
	prog, err := yatl.Parse(yatl.CyclicProgramSource)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Category == "safety" && d.Severity == SeverityError {
			found = true
			if !d.Pos.IsValid() {
				t.Errorf("safety diagnostic has no position: %s", d)
			}
		}
	}
	if !found {
		t.Errorf("CyclicProgramSource produced no safety error:\n%s", render(diags))
	}
}

// TestSeverityOrderAndParse covers the severity helpers the CLI
// depends on.
func TestSeverityOrderAndParse(t *testing.T) {
	if !(SeverityInfo < SeverityWarning && SeverityWarning < SeverityError) {
		t.Fatal("severity ordering broken")
	}
	for _, tc := range []struct {
		in   string
		want Severity
		ok   bool
	}{
		{"info", SeverityInfo, true},
		{"warning", SeverityWarning, true},
		{"error", SeverityError, true},
		{"bogus", 0, false},
	} {
		got, err := ParseSeverity(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseSeverity(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseSeverity(%q) succeeded, want error", tc.in)
		}
	}
}

// TestRunDeterministic: Run must sort and dedup, so two invocations
// over the same program agree exactly.
func TestRunDeterministic(t *testing.T) {
	prog := parseFile(t, filepath.Join("testdata", "range_restriction.yatl"))
	a, err := Run(prog, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(prog, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d diagnostics", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("diagnostic %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].String() == a[i-1].String() {
			t.Errorf("duplicate diagnostic survived dedup: %s", a[i])
		}
	}
}
