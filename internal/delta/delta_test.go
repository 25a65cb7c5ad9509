package delta

import (
	"testing"

	"yat/internal/tree"
)

func entry(id string, children ...*tree.Node) (tree.Name, *tree.Node) {
	return tree.PlainName(id), tree.Sym("item", children...)
}

func storeOf(ids ...string) *tree.Store {
	s := tree.NewStore()
	for _, id := range ids {
		n, t := entry(id, tree.Sym("name", tree.Str(id)))
		s.Put(n, t)
	}
	return s
}

func TestDiffClassifiesEntries(t *testing.T) {
	old := storeOf("a", "b", "c")
	new := storeOf("b", "c", "d")
	// Rewrite c in place.
	n, rewritten := entry("c", tree.Sym("name", tree.Str("c2")))
	new.Put(n, rewritten)

	d := Diff(old, new)
	if len(d.Inserted) != 1 || d.Inserted[0].Name.Key() != tree.PlainName("d").Key() {
		t.Errorf("Inserted = %+v, want [d]", d.Inserted)
	}
	if len(d.Deleted) != 1 || d.Deleted[0].Name.Key() != tree.PlainName("a").Key() {
		t.Errorf("Deleted = %+v, want [a]", d.Deleted)
	}
	if len(d.Changed) != 1 || d.Changed[0].Name.Key() != tree.PlainName("c").Key() {
		t.Errorf("Changed = %+v, want [c]", d.Changed)
	}
	if d.Empty() {
		t.Error("Empty = true, want false")
	}
}

func TestDiffEmpty(t *testing.T) {
	s := storeOf("a", "b")
	if d := Diff(s, s.Clone()); !d.Empty() {
		t.Errorf("identical stores: %+v", d)
	}
	d := Diff(storeOf("a"), storeOf("a", "b"))
	if d.Empty() || len(d.Inserted) != 1 || len(d.Deleted) != 0 || len(d.Changed) != 0 {
		t.Errorf("pure insert: %+v", d)
	}
	// Nil stores are empty stores.
	if d := Diff(nil, storeOf("a")); len(d.Inserted) != 1 {
		t.Errorf("nil old: %+v", d)
	}
	if d := Diff(storeOf("a"), nil); len(d.Deleted) != 1 {
		t.Errorf("nil new: %+v", d)
	}
	if d := Diff(nil, nil); !d.Empty() {
		t.Errorf("nil/nil: %+v", d)
	}
}

// Two Skolem names that differ only in their argument's kind are two
// entries: the symbol x is deleted and the string "x" inserted.
func TestDiffKindDistinctNames(t *testing.T) {
	sym, str := tree.SkolemName("P", tree.Symbol("x")), tree.SkolemName("P", tree.String("x"))
	old, new := tree.NewStore(), tree.NewStore()
	old.Put(sym, tree.Sym("item"))
	new.Put(str, tree.Sym("item"))
	d := Diff(old, new)
	if len(d.Inserted) != 1 || d.Inserted[0].Name.Key() != str.Key() {
		t.Errorf("Inserted = %+v, want [%s]", d.Inserted, str)
	}
	if len(d.Deleted) != 1 || d.Deleted[0].Name.Key() != sym.Key() {
		t.Errorf("Deleted = %+v, want [%s]", d.Deleted, sym)
	}
	if len(d.Changed) != 0 {
		t.Errorf("Changed = %+v, want none", d.Changed)
	}
}

// Inserted and Changed follow the new store's entry order, Deleted the
// old store's.
func TestDiffPreservesStoreOrder(t *testing.T) {
	old := storeOf("x", "y")
	new := storeOf("m", "x", "y", "k")
	d := Diff(old, new)
	if len(d.Inserted) != 2 ||
		d.Inserted[0].Name.Key() != tree.PlainName("m").Key() ||
		d.Inserted[1].Name.Key() != tree.PlainName("k").Key() {
		t.Errorf("Inserted order = %+v, want [m k] (new-store order)", d.Inserted)
	}
	d = Diff(new, old)
	if len(d.Deleted) != 2 ||
		d.Deleted[0].Name.Key() != tree.PlainName("m").Key() ||
		d.Deleted[1].Name.Key() != tree.PlainName("k").Key() {
		t.Errorf("Deleted order = %+v, want [m k] (old-store order)", d.Deleted)
	}
}
