package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
)

// brochureFile writes a synthetic brochure store to disk and returns
// its path.
func brochureFile(t *testing.T) string {
	t.Helper()
	store := workload.BrochureStore(8, 2, 5, 42)
	path := filepath.Join(t.TempDir(), "brochures.yat")
	if err := os.WriteFile(path, []byte(tree.FormatStore(store)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runProf(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestTextProfile(t *testing.T) {
	input := brochureFile(t)
	code, out, errOut := runProf(t, "-program", "sgml2odmg", "-input", input)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"EXPLAIN sgml2odmg", "rule Car", "rule Sup", "fired=", "skolems=", "match", "calls      city="} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall=") {
		t.Error("timing shown without -timing")
	}
}

func TestTimingFlag(t *testing.T) {
	input := brochureFile(t)
	code, out, errOut := runProf(t, "-program", "sgml2odmg", "-input", input, "-timing")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "wall=") || !strings.Contains(out, "total:") {
		t.Errorf("-timing output missing wall times:\n%s", out)
	}
}

// TestDeterministicAcrossRunsAndParallelism pins the tool's headline
// property: without -timing the profile is byte-identical run to run
// and at any parallelism.
func TestDeterministicAcrossRunsAndParallelism(t *testing.T) {
	input := brochureFile(t)
	_, want, _ := runProf(t, "-program", "sgml2odmg", "-input", input)
	for _, par := range []string{"1", "4", "8"} {
		code, out, errOut := runProf(t, "-program", "sgml2odmg", "-input", input, "-parallelism", par)
		if code != 0 {
			t.Fatalf("parallelism=%s: exit %d, stderr: %s", par, code, errOut)
		}
		if out != want {
			t.Errorf("parallelism=%s profile diverges:\n got: %s\nwant: %s", par, out, want)
		}
	}
}

func TestJSONProfile(t *testing.T) {
	input := brochureFile(t)
	code, out, errOut := runProf(t, "-program", "sgml2odmg", "-input", input, "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var doc struct {
		Program string `json:"program"`
		Rounds  int    `json:"rounds"`
		Rules   []struct {
			Rule  string `json:"rule"`
			Fired int    `json:"fired"`
		} `json:"rules"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if doc.Rounds == 0 || len(doc.Rules) == 0 {
		t.Errorf("empty profile: %+v", doc)
	}
	// Stable across repeat runs (timing omitted).
	_, again, _ := runProf(t, "-program", "sgml2odmg", "-input", input, "-json")
	if again != out {
		t.Error("JSON profile differs between identical runs")
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, _ := runProf(t); code != 2 {
		t.Errorf("missing -program: exit %d, want 2", code)
	}
	if code, _, errOut := runProf(t, "-program", "no-such-program", "-input", os.DevNull); code != 1 {
		t.Errorf("unknown program: exit %d, want 1 (stderr %s)", code, errOut)
	}
	// There is one match path, so no flag selects one.
	if code, _, _ := runProf(t, "-program", "sgml2odmg", "-input", os.DevNull, "-optimize"); code != 2 {
		t.Errorf("-optimize: exit %d, want 2 (unknown flag)", code)
	}
}

// -fault serves the store through the source layer with a scripted
// failure schedule: the answers match the healthy run and the profile
// gains the source fetch/retry lines.
func TestFaultFlag(t *testing.T) {
	input := brochureFile(t)
	_, healthy, _ := runProf(t, "-program", "sgml2odmg", "-input", input,
		"-ask", "X", "-functors", "Psup")
	code, out, errOut := runProf(t, "-program", "sgml2odmg", "-input", input,
		"-ask", "X", "-functors", "Psup", "-fault", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	wantAnswers := ""
	for _, line := range strings.Split(healthy, "\n") {
		if strings.HasPrefix(line, "answers:") {
			wantAnswers = line
		}
	}
	if wantAnswers == "" || !strings.Contains(out, wantAnswers) {
		t.Errorf("faulted answers differ from healthy (%q):\n%s", wantAnswers, out)
	}
	// Both injected faults were absorbed by retries, so the mediator's
	// fetch itself succeeded: failures=0 but retries=2.
	for _, want := range []string{"source input  fetches=1 failures=0 retries=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q:\n%s", want, out)
		}
	}
}

// -stats swaps the EXPLAIN profile for the mediator's statistics,
// rendered by mediator.Stats itself (the document yatserve's GET /stats
// serves).
func TestStatsFlag(t *testing.T) {
	input := brochureFile(t)
	args := []string{"-program", "sgml2odmg", "-input", input,
		"-ask", "X", "-functors", "Psup", "-demand", "-stats"}
	code, out, errOut := runProf(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"mediator stats (generation 1, demand mode)", "asks: 1", "cached-rules:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "EXPLAIN") {
		t.Error("-stats still printed the EXPLAIN profile")
	}

	code, jsonOut, errOut := runProf(t, append(args, "-json")...)
	if code != 0 {
		t.Fatalf("-json exit %d, stderr: %s", code, errOut)
	}
	// The document is mediator.Stats's own JSON, deterministic without
	// -timing.
	var doc struct {
		Generation  int64 `json:"generation"`
		Demand      bool  `json:"demand"`
		Asks        int64 `json:"asks"`
		CachedRules int   `json:"cached_rules"`
	}
	body := jsonOut[strings.Index(jsonOut, "{"):]
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, jsonOut)
	}
	if doc.Generation != 1 || !doc.Demand || doc.Asks != 1 || doc.CachedRules == 0 {
		t.Errorf("unexpected stats document: %+v", doc)
	}
	if _, again, _ := runProf(t, append(args, "-json")...); again != jsonOut {
		t.Error("stats JSON differs between identical runs")
	}
}

func TestStatsRequiresAsk(t *testing.T) {
	input := brochureFile(t)
	code, _, errOut := runProf(t, "-program", "sgml2odmg", "-input", input, "-stats")
	if code != 2 || !strings.Contains(errOut, "-ask") {
		t.Fatalf("exit %d, stderr: %s; want usage error mentioning -ask", code, errOut)
	}
}

func TestFaultRequiresAsk(t *testing.T) {
	input := brochureFile(t)
	code, _, errOut := runProf(t, "-program", "sgml2odmg", "-input", input, "-fault", "1")
	if code != 2 || !strings.Contains(errOut, "-ask") {
		t.Fatalf("exit %d, stderr: %s; want usage error mentioning -ask", code, errOut)
	}
}

// TestStatsGolden pins `yatprof -stats` byte for byte, text and JSON:
// the goldens were captured before mediator.Stats became its own wire
// document, so the rendering is provably the one the shadow view types
// produced. -fault 1 puts a source row (with a retry) in the document.
// YAT_UPDATE_GOLDEN=1 rewrites them.
func TestStatsGolden(t *testing.T) {
	input := brochureFile(t)
	args := []string{"-program", "sgml2odmg", "-input", input,
		"-ask", "X", "-functors", "Psup", "-demand", "-fault", "1", "-stats"}
	for golden, extra := range map[string][]string{"stats.golden.txt": nil, "stats.golden.json": {"-json"}} {
		code, out, errOut := runProf(t, append(args, extra...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", golden, code, errOut)
		}
		path := filepath.Join("testdata", golden)
		if os.Getenv("YAT_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", golden, out, want)
		}
	}
}
