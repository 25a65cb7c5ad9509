package engine

import (
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

const deltaTwoRuleProgram = `
program twosrc

rule Alpha {
  head Pa(N) = item < -> name -> N >
  from A = alpha < -> name -> N >
}

rule Beta {
  head Pb(N) = item < -> name -> N >
  from B = beta < -> name -> N >
}
`

func deltaEntry(id, functor, name string) tree.StoreEntry {
	return tree.StoreEntry{
		Name: tree.PlainName(id),
		Tree: tree.Sym(functor, tree.Sym("name", tree.Str(name))),
	}
}

// affectedRules is AffectedRules over the program compiled.
func affectedRules(prog *yatl.Program, entries []tree.StoreEntry) map[string]bool {
	c, _ := Compile(prog)
	return c.AffectedRules(entries)
}

// AffectedRules matches each entry against every rule body: alpha
// trees feed Alpha only, beta trees Beta only, and an unmatched tree
// feeds nothing.
func TestAffectedRules(t *testing.T) {
	prog := yatl.MustParse(deltaTwoRuleProgram)
	cases := []struct {
		name    string
		entries []tree.StoreEntry
		want    []string
	}{
		{"alpha", []tree.StoreEntry{deltaEntry("a1", "alpha", "ant")}, []string{"Alpha"}},
		{"beta", []tree.StoreEntry{deltaEntry("b1", "beta", "bee")}, []string{"Beta"}},
		{"both", []tree.StoreEntry{deltaEntry("a1", "alpha", "ant"), deltaEntry("b1", "beta", "bee")}, []string{"Alpha", "Beta"}},
		{"unmatched", []tree.StoreEntry{deltaEntry("g1", "gamma", "gnu")}, nil},
		{"none", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := affectedRules(prog, c.entries)
			if len(got) != len(c.want) {
				t.Fatalf("affected = %v, want %v", got, c.want)
			}
			for _, r := range c.want {
				if !got[r] {
					t.Errorf("affected = %v, missing %s", got, r)
				}
			}
		})
	}
}

// Exception rules match everything by design; AffectedRules must skip
// them rather than reporting every delta as affecting them.
func TestAffectedRulesSkipsExceptions(t *testing.T) {
	prog := yatl.MustParse(deltaTwoRuleProgram + yatl.ExceptionRuleSource)
	got := affectedRules(prog, []tree.StoreEntry{deltaEntry("a1", "alpha", "ant")})
	if got["Exception"] {
		t.Errorf("affected = %v, exception rules must be excluded", got)
	}
	if !got["Alpha"] || len(got) != 1 {
		t.Errorf("affected = %v, want exactly {Alpha}", got)
	}
}

// A rule whose match can read a second entry — each of the constructs
// ReadsOtherEntries names — is fed by every entry of a non-empty delta,
// matching or not, and by nothing when the delta is empty; a rule that
// uses the same pattern names in its head only is not.
func TestAffectedRulesTypedReferences(t *testing.T) {
	prog := yatl.MustParse(`
program typed

rule TypedBody {
  head Pa(A) = out -> A
  from A : Pgood = item -> X
}
rule PatternDomain {
  head Pb(A) = out -> R
  from A = item -> ref -> R : Pgood
}
rule RefDomain {
  head Pc(A) = out -> R
  from A = item -> ref -> R : &Pgood
}
rule RefLabel {
  head Pd(X) = out -> X
  from A = item -> ref -> &Pgood(X)
}
rule DerefLabel {
  head Pe(A) = out -> A
  from A = item -> ref -> ^Pgood
}
rule HeadOnly {
  head Pf(X) = out < -> ref -> &Pgood(X), -> val -> ^Pa(X) >
  from A = item -> X : int
}
`)
	reading := []string{"TypedBody", "PatternDomain", "RefDomain", "RefLabel", "DerefLabel"}
	for _, r := range prog.Rules {
		want := r.Name != "HeadOnly"
		if got := ReadsOtherEntries(r); got != want {
			t.Errorf("ReadsOtherEntries(%s) = %v, want %v", r.Name, got, want)
		}
	}
	got := affectedRules(prog, []tree.StoreEntry{deltaEntry("g1", "gamma", "gnu")})
	if len(got) != len(reading) {
		t.Fatalf("affected = %v, want exactly %v", got, reading)
	}
	for _, r := range reading {
		if !got[r] {
			t.Errorf("affected = %v, missing %s", got, r)
		}
	}
	if got := affectedRules(prog, nil); len(got) != 0 {
		t.Errorf("an empty delta affects %v, want nothing", got)
	}
}
