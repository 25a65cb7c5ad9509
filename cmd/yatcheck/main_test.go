package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanSource = `
program clean

rule R {
  head P(SN) = class -> name -> SN
  from B = doc -> supplier -> SN
}
`

const brokenSource = `
program broken

rule R {
  head P(X) = class -> name -> SN
  from B = doc -> supplier -> SN
}
`

func TestCleanProgramExitsZero(t *testing.T) {
	path := writeProgram(t, "clean.yatl", cleanSource)
	code, stdout, stderr := runCheck(t, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "error:") {
		t.Errorf("unexpected errors in output: %s", stdout)
	}
}

func TestBrokenProgramExitsOne(t *testing.T) {
	path := writeProgram(t, "broken.yatl", brokenSource)
	code, stdout, _ := runCheck(t, path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output: %s", code, stdout)
	}
	want := path + ":5:8: error: [range-restriction]"
	if !strings.Contains(stdout, want) {
		t.Errorf("output missing %q:\n%s", want, stdout)
	}
}

func TestSeverityThreshold(t *testing.T) {
	path := writeProgram(t, "broken.yatl", brokenSource)
	if code, _, _ := runCheck(t, "-severity", "info", path); code != 1 {
		t.Errorf("info threshold on broken program: exit %d, want 1", code)
	}
	if code, _, stderr := runCheck(t, "-severity", "bogus", path); code != 2 {
		t.Errorf("bogus severity: exit %d, want 2 (stderr: %s)", code, stderr)
	}
}

// warningOnlySource is clean apart from unused-var findings: the
// unused body variable B is info, the unused let-binding U a warning.
// No analyzer reports an error for it.
const warningOnlySource = `
program warnonly

rule R {
  head P(SN) = class -> name -> SN
  from B = doc -> supplier -> A
  let SN = city(A)
  let U = zip(A)
}
`

// TestSeverityThresholdEdges pins the gate at exactly the boundary: a
// program whose worst finding is a warning passes -severity error but
// fails -severity warning and -severity info. The diagnostics print
// either way — the threshold decides the exit code, not the output.
func TestSeverityThresholdEdges(t *testing.T) {
	path := writeProgram(t, "warn.yatl", warningOnlySource)
	for _, tc := range []struct {
		severity string
		want     int
	}{
		{"error", 0},
		{"warning", 1},
		{"info", 1},
	} {
		code, stdout, stderr := runCheck(t, "-severity", tc.severity, path)
		if code != tc.want {
			t.Errorf("-severity %s: exit %d, want %d (stderr: %s)", tc.severity, code, tc.want, stderr)
		}
		if !strings.Contains(stdout, "warning: [unused-var]") {
			t.Errorf("-severity %s suppressed the warning diagnostic:\n%s", tc.severity, stdout)
		}
		if tc.want == 0 && strings.Contains(stderr, "finding(s)") {
			t.Errorf("-severity %s reported failure on a passing run: %s", tc.severity, stderr)
		}
	}
	// The default threshold is error, so the bare invocation passes too.
	if code, _, stderr := runCheck(t, path); code != 0 {
		t.Errorf("default threshold: exit %d, want 0 (stderr: %s)", code, stderr)
	}
}

// TestSeverityJSONStable pins the machine-readable path at the edge:
// the JSON body is byte-identical across repeat runs and across
// thresholds — only the exit code moves with -severity.
func TestSeverityJSONStable(t *testing.T) {
	path := writeProgram(t, "warn.yatl", warningOnlySource)
	code, first, _ := runCheck(t, "-json", "-severity", "error", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var diags []struct {
		Severity string `json:"severity"`
		Category string `json:"category"`
	}
	if err := json.Unmarshal([]byte(first), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, first)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics in JSON output")
	}
	for _, d := range diags {
		if d.Severity == "error" {
			t.Errorf("warning-only program produced an error diagnostic: %+v", d)
		}
	}
	if code, again, _ := runCheck(t, "-json", "-severity", "error", path); code != 0 || again != first {
		t.Error("JSON output differs between identical runs")
	}
	if code, gated, _ := runCheck(t, "-json", "-severity", "warning", path); code != 1 || gated != first {
		t.Errorf("JSON body must not change with the threshold (exit %d)", code)
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	path := writeProgram(t, "bad.yatl", "program p\n\nrule R {\n  head P(X = class\n}\n")
	code, stdout, _ := runCheck(t, path)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output: %s", code, stdout)
	}
	if !strings.Contains(stdout, "[syntax]") {
		t.Errorf("syntax error not categorised: %s", stdout)
	}
	if !strings.Contains(stdout, path+":4:") {
		t.Errorf("syntax diagnostic missing line position: %s", stdout)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeProgram(t, "broken.yatl", brokenSource)
	code, stdout, _ := runCheck(t, "-json", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Severity string `json:"severity"`
		Category string `json:"category"`
		Message  string `json:"message"`
		Pos      struct {
			Line int `json:"line"`
			Col  int `json:"col"`
		} `json:"pos"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout)
	}
	found := false
	for _, d := range diags {
		if d.Category == "range-restriction" && d.Severity == "error" && d.Pos.Line == 5 && d.Pos.Col == 8 {
			found = true
			if d.File != path {
				t.Errorf("file = %q, want %q", d.File, path)
			}
		}
	}
	if !found {
		t.Errorf("JSON output missing the range-restriction error:\n%s", stdout)
	}
}

func TestBuiltinProgramsPassGate(t *testing.T) {
	code, _, stderr := runCheck(t, "-severity", "warning", "-builtin")
	if code != 0 {
		t.Fatalf("builtin programs fail the warning gate: exit %d\n%s", code, stderr)
	}
}

func TestNoInputIsUsageError(t *testing.T) {
	if code, _, _ := runCheck(t); code != 2 {
		t.Errorf("no input: exit %d, want 2", code)
	}
	if code, _, _ := runCheck(t, "-facts", "-builtin"); code != 2 {
		t.Errorf("-facts: exit %d, want 2 (unknown flag)", code)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runCheck(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"range-restriction", "safety", "typing", "coverage", "deadrule"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout)
		}
	}
	// One row per analyzer.
	if rows := strings.Count(stdout, "\n"); rows != 12 {
		t.Errorf("-list prints %d rows, want 12:\n%s", rows, stdout)
	}
}

// TestPinnedOutputOrder: diagnostics print in the pinned total order —
// file, line, column, analyzer name — regardless of the order the
// files are named on the command line, and the bytes are identical
// across runs.
func TestPinnedOutputOrder(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.yatl")
	b := filepath.Join(dir, "b.yatl")
	if err := os.WriteFile(a, []byte(warningOnlySource), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(brokenSource), 0o644); err != nil {
		t.Fatal(err)
	}

	_, forward, _ := runCheck(t, "-json", a, b)
	_, reversed, _ := runCheck(t, "-json", b, a)
	if forward != reversed {
		t.Errorf("-json output depends on argument order:\n%s\nvs\n%s", forward, reversed)
	}
	if _, again, _ := runCheck(t, "-json", a, b); again != forward {
		t.Error("-json output differs between identical runs")
	}

	var diags []struct {
		File     string `json:"file"`
		Category string `json:"category"`
		Pos      struct {
			Line int `json:"line"`
			Col  int `json:"col"`
		} `json:"pos"`
	}
	if err := json.Unmarshal([]byte(forward), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, forward)
	}
	if len(diags) < 3 {
		t.Fatalf("want at least 3 diagnostics across both files, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		p, q := diags[i-1], diags[i]
		ordered := p.File < q.File ||
			(p.File == q.File && (p.Pos.Line < q.Pos.Line ||
				(p.Pos.Line == q.Pos.Line && (p.Pos.Col < q.Pos.Col ||
					(p.Pos.Col == q.Pos.Col && p.Category <= q.Category)))))
		if !ordered {
			t.Errorf("diagnostics %d and %d out of pinned order: %+v then %+v", i-1, i, p, q)
		}
	}

	// Text mode obeys the same order.
	_, tf, _ := runCheck(t, a, b)
	_, tr, _ := runCheck(t, b, a)
	if tf != tr {
		t.Errorf("text output depends on argument order:\n%s\nvs\n%s", tf, tr)
	}
	if ia, ib := strings.Index(tf, a), strings.Index(tf, b); ia < 0 || ib < 0 || ia > ib {
		t.Errorf("text output not grouped by file (a at %d, b at %d):\n%s", ia, ib, tf)
	}
}

func TestMissingFileExitsTwo(t *testing.T) {
	if code, _, _ := runCheck(t, filepath.Join(t.TempDir(), "nope.yatl")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
