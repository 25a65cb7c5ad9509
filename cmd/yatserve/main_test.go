package main

import (
	"strings"
	"testing"

	"yat/internal/library"
)

func TestLoadProgramSpecs(t *testing.T) {
	prog, err := library.ResolveProgram("selective:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 3 {
		t.Fatalf("selective:3 has %d rules", len(prog.Rules))
	}
	if _, err := library.ResolveProgram("sgml2odmg"); err != nil {
		t.Fatalf("builtin: %v", err)
	}
	for _, bad := range []string{"selective:0", "selective:x", "no-such-program"} {
		if _, err := library.ResolveProgram(bad); err == nil {
			t.Errorf("ResolveProgram(%q) accepted a bad spec", bad)
		}
	}
}

func TestLoadInputSpecs(t *testing.T) {
	store, err := loadInputs("brochures:5,2,7")
	if err != nil {
		t.Fatal(err)
	}
	if store == nil || len(store.Names()) == 0 {
		t.Fatal("empty brochures store")
	}
	// The optional fourth field seeds the generator: distinct seeds,
	// distinct stores; same seed, same store.
	a, _ := loadInputs("brochures:5,2,7,1")
	b, _ := loadInputs("brochures:5,2,7,1")
	if len(a.Names()) != len(b.Names()) {
		t.Fatal("same seed produced different stores")
	}
	if s, err := loadInputs(""); err != nil || s != nil {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	for _, bad := range []string{"brochures:5,2", "brochures:a,b,c", "no/such/file.yat"} {
		if _, err := loadInputs(bad); err == nil {
			t.Errorf("loadInputs(%q) accepted a bad spec", bad)
		}
	}
}

func TestRunBadUsage(t *testing.T) {
	var stderr strings.Builder
	if code := run(nil, &stderr); code != 2 {
		t.Errorf("missing -program: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-program", "selective:2", "-split", "2"}, &stderr); code != 2 {
		t.Errorf("-split without -input: exit %d, want 2 (stderr %s)", code, stderr.String())
	}
	// One mediator per server and one engine schedule: the lane count,
	// the in-process federation and the engine worker count are gone.
	for _, gone := range []string{"-pool", "-shards", "-parallelism"} {
		stderr.Reset()
		if code := run([]string{"-program", "selective:2", gone, "2"}, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 for an unknown flag", gone, code)
		}
	}
}
