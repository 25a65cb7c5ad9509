package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInspectBuiltinProgram(t *testing.T) {
	var b strings.Builder
	if err := inspectProgram(&b, "odmg2html"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{
		"program odmg2html: 6 rules",
		"safety: ok",
		"rule hierarchy",
		"Web6 shadows Web2",
		"signature M_IN",
		"HtmlPage",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

// TestInspectDuplicateRuleNames checks that a program with two rules of
// one name, which passes §3.4's safety check but which Compile refuses,
// is reported rejected, not ok.
func TestInspectDuplicateRuleNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.yatl")
	src := `program dup

rule R {
  head P(X) = a -> N
  from X = b -> N
}

rule R {
  head Q(X) = c -> N
  from X = d -> N
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := inspectProgram(&b, path); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "safety: REJECTED — engine: two rules are named R") {
		t.Errorf("a program with two rules named R is not rejected:\n%s", out)
	}
	if strings.Contains(out, "safety: ok") {
		t.Errorf("a program with two rules named R is reported ok:\n%s", out)
	}
}

func TestInspectUnknownProgram(t *testing.T) {
	var b strings.Builder
	if err := inspectProgram(&b, "nope"); err == nil {
		t.Error("unknown program accepted")
	}
}

func TestInspectStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.yat")
	if err := os.WriteFile(path, []byte(`b1: brochure < title < "Golf" > >`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := inspectStore(&b, path, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "brochure") {
		t.Errorf("store dump wrong: %s", b.String())
	}
	b.Reset()
	if err := inspectStore(&b, path, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "digraph yat") {
		t.Errorf("dot dump wrong: %s", b.String())
	}
	if err := inspectStore(&b, filepath.Join(dir, "missing"), false); err == nil {
		t.Error("missing store accepted")
	}
}
