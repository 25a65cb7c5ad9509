package engine

import (
	"errors"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

// TestUnconvertedDeterministic pins the §3.5 exception report: the
// ErrUnconverted message and Result.Unconverted list the stray inputs
// in the total order, not in insertion order. The stray inputs are
// chosen so that insertion order and lexical order disagree.
func TestUnconvertedDeterministic(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource + yatl.ExceptionRuleSource)
	store := fig3Store()
	for _, name := range []string{"stray10", "stray2", "astray", "stray1"} {
		store.Put(tree.PlainName(name), tree.Sym("memo", tree.Str(name)))
	}
	res, err := Run(prog, store)
	var unc *ErrUnconverted
	if !errors.As(err, &unc) {
		t.Fatalf("expected ErrUnconverted, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
	wantIDs := []string{"&astray", "&stray1", "&stray10", "&stray2"}
	wantMsg := "engine: exception rule fired: input data not converted: " + strings.Join(wantIDs, ", ")
	if unc.Error() != wantMsg {
		t.Errorf("message %q, want %q", unc.Error(), wantMsg)
	}
	if len(res.Unconverted) != len(wantIDs) {
		t.Fatalf("%d unconverted, want %d", len(res.Unconverted), len(wantIDs))
	}
	for i, id := range res.Unconverted {
		if id.Display() != wantIDs[i] {
			t.Errorf("Unconverted[%d] = %s, want %s", i, id.Display(), wantIDs[i])
		}
	}
}

// TestUnconvertedTotalOrder feeds inputs whose display keys would tie
// under the old comparator only on identical values: the kind-first
// total order must hold regardless of activation order.
func TestUnconvertedTotalOrder(t *testing.T) {
	prog := yatl.MustParse(`
program narrow
rule R {
  head Pout(X) = out -> V
  from X = wanted -> V
}
` + yatl.ExceptionRuleSource)
	store := tree.NewStore()
	// None of these match rule R; all are reported unconverted.
	store.Put(tree.PlainName("zz"), tree.Sym("memo", tree.Str("a")))
	store.Put(tree.PlainName("aa"), tree.Sym("memo", tree.Str("b")))
	store.Put(tree.PlainName("mm"), tree.Sym("memo", tree.Str("c")))
	res, err := Run(prog, store, nil)
	var unc *ErrUnconverted
	if !errors.As(err, &unc) {
		t.Fatalf("expected ErrUnconverted, got %v", err)
	}
	want := []string{"&aa", "&mm", "&zz"}
	if len(res.Unconverted) != len(want) {
		t.Fatalf("unconverted = %v", res.Unconverted)
	}
	for i, id := range res.Unconverted {
		if id.Display() != want[i] {
			t.Errorf("Unconverted[%d] = %s, want %s", i, id.Display(), want[i])
		}
	}
}
