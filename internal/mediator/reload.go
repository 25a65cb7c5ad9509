// Hot program reload: the demand-cache half of Mediator.Reload.
//
// Reload swaps the whole progState atomically, so its correctness
// burden is deciding which cached functor groups may be carried from
// the old program's cache into the new one. The rule is conservative:
// a group survives iff its slice in the new program lists, in the same
// order, exactly the rules its slice in the old program listed, and
// every one of those rules prints identically in both programs.
// Identical slice text means an identical sub-program, and the engine
// is deterministic over a sub-program and inputs, so the cached outputs
// are byte-identical to what a fresh run would produce. Anything less —
// a rule edited, added to, removed from or moved within the slice, or
// renamed — leaves the group behind. Both slices come from the
// compiled programs' slice memos, the one slicing path fills and
// refreshes use.
package mediator

import (
	"yat/internal/engine"
	"yat/internal/yatl"
)

// cloneFor builds the successor demand generation for a reload from
// the program compiled as from to the one compiled as to: the run
// bookkeeping is copied, the unchanged functor groups are shared and
// with them the input snapshot they were computed from. g is only
// marked superseded, so a refresh waiting for its lock follows the
// clone; in-flight queries keep answering from it.
func (g *demandGen) cloneFor(from, to *engine.Compiled) *demandGen {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.superseded = true
	c := newDemandGen(*g.ledger.Load())
	c.pin = g.pin
	c.cache = g.cache.carryOver(func(f string) bool {
		oldSl, newSl := from.Slice(f), to.Slice(f)
		return sameRules(oldSl.Construct, newSl.Construct) && sameRules(oldSl.Support, newSl.Support)
	})
	return c
}

// sameRules reports whether two rule lists hold the same rules in the
// same order: identical text, which includes the rule name.
func sameRules(a, b []*yatl.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}
