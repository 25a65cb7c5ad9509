// Package delta computes the difference between two fetches of a
// source: which named trees appeared, which disappeared, and which
// changed in place. It is the first stage of the mediator's
// incremental view maintenance — RefreshSource diffs the previous
// merged input store against the refreshed one and re-runs only the
// cached groups whose rules the difference can reach, instead of
// dropping every cached group and re-materializing from scratch.
//
// The diff is entry-grained: a named store entry is the unit the
// engine activates and the unit the mediator matches against the rule
// bodies to find the affected rules.
package delta

import (
	"yat/internal/tree"
)

// Change is one entry present in both stores with different trees.
type Change struct {
	Name tree.Name
	Old  *tree.Node
	New  *tree.Node
}

// Delta is the difference from an old store to a new one. Inserted
// and Changed preserve the new store's entry order and Deleted the old
// store's.
type Delta struct {
	// Inserted lists the entries of new whose names old lacks.
	Inserted []tree.StoreEntry
	// Deleted lists the entries of old whose names new lacks.
	Deleted []tree.StoreEntry
	// Changed lists the names present in both with unequal trees.
	Changed []Change
}

// Diff computes the delta from old to new. A nil store is treated as
// empty. Entries are matched through the stores' own index and
// compared by deep tree equality.
func Diff(old, new *tree.Store) *Delta {
	if old == nil {
		old = tree.NewStore()
	}
	if new == nil {
		new = tree.NewStore()
	}
	d := &Delta{}
	for _, e := range new.Entries() {
		prev, ok := old.Get(e.Name)
		switch {
		case !ok:
			d.Inserted = append(d.Inserted, e)
		case !prev.Equal(e.Tree):
			d.Changed = append(d.Changed, Change{Name: e.Name, Old: prev, New: e.Tree})
		}
	}
	for _, e := range old.Entries() {
		if !new.Has(e.Name) {
			d.Deleted = append(d.Deleted, e)
		}
	}
	return d
}

// Empty reports whether the two stores were identical.
func (d *Delta) Empty() bool {
	return len(d.Inserted) == 0 && len(d.Deleted) == 0 && len(d.Changed) == 0
}
