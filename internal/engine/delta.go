// Delta-evaluation support: the engine half of incremental view
// maintenance. A source refresh diffs the old and new input stores
// (internal/delta); the mediator then needs two things from the
// engine: a cheap, sound over-approximation of which rules an entry
// can feed (AffectedRules), and a way to run a slice whose activation
// fixpoint is seeded from the delta entries alone (WithDeltaSeeds).
//
// Soundness of the insert-only patch the mediator builds on top:
// with a delta-seeded run over the slice of the affected groups,
// every binding chain the run derives descends from a delta entry —
// the fixpoint has no other roots. If additionally (a) the delta is
// insert-only, (b) no slice rule joins multiple body patterns, (c) no
// construct head dereferences a Skolem (^P), and (d) no rule is an
// exception rule, then the run's outputs relate to the full re-run's
// as a pure append: a full run's activation order processes the old
// entries first and the appended delta entries after, old-rooted
// bindings reproduce exactly the cached outputs (the engine is
// deterministic), and delta-rooted bindings group under Skolem OIDs
// that either collide with a cached OID (detected and rejected by the
// mediator — fallback) or are new, in the delta run's own order.
// Deletions and in-place changes are never patched: removing an entry
// can unblock a less-specific rule (§4.2 blocking) — non-monotone.
package engine

import (
	"yat/internal/tree"
	"yat/internal/yatl"
)

// WithDeltaSeeds switches a run to delta-evaluation mode: activations
// are seeded from these entries instead of the full input store. The
// caller owns the soundness argument (see the package comment above);
// the engine just runs the smaller fixpoint.
func WithDeltaSeeds(seeds *tree.Store) Option {
	return optionFunc(func(o *Options) { o.DeltaSeeds = seeds })
}

// AffectedRules returns the names of the non-exception rules at least
// one of the given entries can feed: a sound over-approximation (a
// rule whose bindings could change is always included; a rule that
// merely pattern-matches an entry it would later drop may be too).
// The test is a storeless body-pattern match, which is exactly the
// conformance-free upper bound of the engine's own match phase.
func AffectedRules(prog *yatl.Program, entries []tree.StoreEntry) map[string]bool {
	affected := map[string]bool{}
	m := &Matcher{}
	for _, e := range entries {
		for _, r := range prog.Rules {
			if r.Exception || affected[r.Name] {
				continue
			}
			for _, bp := range r.Body {
				if len(m.MatchTree(bp.Tree, e.Tree)) > 0 {
					affected[r.Name] = true
					break
				}
			}
		}
	}
	return affected
}
