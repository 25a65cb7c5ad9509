// Delta support: the engine half of incremental view maintenance. A
// source refresh diffs the old and new input stores (internal/delta)
// and re-runs the slice of the cached groups the difference can reach;
// what it needs from the engine, besides RunSlice, is a cheap, sound
// over-approximation of which rules an entry can feed (AffectedRules).
package engine

import (
	"slices"

	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// storeless matches with no store and no model: conformance-free.
var storeless = &Matcher{}

// AffectedRules returns the names of the non-exception rules at least
// one of the given entries can feed: a sound over-approximation (a
// rule whose bindings could change is always included; a rule that
// merely pattern-matches an entry it would later drop may be too).
// The entries are whatever a delta touches — inserted trees, deleted
// ones, both sides of a rewrite — so the test is a storeless match of
// the rules' compiled bodies: the conformance-free upper bound of the
// engine's own match phase, blind to §4.2 blocking, which removing an
// entry can lift. A rule that ReadsOtherEntries is fed by every entry.
func (c *Compiled) AffectedRules(entries []tree.StoreEntry) map[string]bool {
	affected := map[string]bool{}
	if len(entries) == 0 {
		return affected
	}
	for _, p := range c.all.rules {
		rp := c.plans[p]
		if ReadsOtherEntries(rp.rule) || slices.ContainsFunc(entries, func(e tree.StoreEntry) bool {
			return slices.ContainsFunc(rp.bodies, func(bp bodyPlan) bool { return storeless.matches(bp.root, len(rp.vars), e.Tree) })
		}) {
			affected[rp.rule.Name] = true
		}
	}
	return affected
}

// ReadsOtherEntries reports whether matching the rule's body against
// one entry can consult another: a typed body pattern (from X : P = …),
// a leaf variable with a pattern or reference domain (V : P, V : &P) and
// a pattern label (&P(args), ^P) are each checked for conformance
// through the input store whenever the run's model defines P, following
// references out of the matched entry — so a change to the *referenced*
// entry changes the match. Nothing records which entries a match read,
// and the model may come from the run's options, so the test is
// syntactic: such a rule is fed by every entry of a delta.
func ReadsOtherEntries(r *yatl.Rule) bool {
	for _, bp := range r.Body {
		reads := bp.Domain != ""
		bp.Tree.Walk(func(pt *pattern.PTree) bool {
			switch l := pt.Label.(type) {
			case pattern.PatRef:
				reads = true
			case pattern.Var:
				reads = reads || l.Domain.Pattern != ""
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}
