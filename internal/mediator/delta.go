// Incremental view maintenance: the delta-propagation half of
// Mediator.RefreshSource.
//
// The refreshed fetch is diffed (internal/delta) against the input
// snapshot this generation's cache was computed from — the pin, see
// inputs.go — and absorbed in three tiers, cheapest proven-sound tier
// first:
//
//  1. Insert patch. For an insert-only delta, the union slice of the
//     affected cached groups is re-run in delta-evaluation mode
//     (engine.WithDeltaSeeds): the activation fixpoint is seeded from
//     the inserted entries alone, so the run derives exactly the
//     delta's consequences. Its outputs are appended to the cached
//     groups. Soundness (see internal/engine/delta.go for the full
//     argument): every binding chain of the delta run descends from
//     an inserted entry; with single-pattern rules that read only the
//     entry they match, no construct-head Skolem derefs and no
//     exception rules in the slice, the full re-run's output is
//     exactly the cached output plus these delta-rooted outputs —
//     unless a delta-rooted binding lands in a cached identity's
//     group, which the OID collision check detects, rejecting the
//     patch. Ask answers are sorted before they are returned (and the
//     ask memo is versioned), so appending at the cache's tail cannot
//     leak an ordering difference.
//
//  2. Slice re-run. When the delta deletes or rewrites entries
//     (removing an input can unblock a less-specific rule — §4.2
//     blocking makes deletion non-monotone), joins, derefs, typed
//     references, exception rules or a collision make the patch
//     unprovable, the union slice of the affected groups is re-run
//     normally over the new inputs and swapped into the cache in
//     place. Unaffected groups stay warm: far cheaper than a wholesale
//     drop when the source feeds few of the cached groups.
//
//  3. Wholesale invalidation. A source that was failing in the pinned
//     snapshot has no old side to match (its data was absent), a
//     restored generation has no pinned store to diff against, and a
//     fetch in which another source degraded has no complete new
//     picture — all fall back to Invalidate().
//
// A fetch that leaves the refreshed source itself down is no tier: the
// pin is the last good snapshot, so the refresh fails with a
// *FetchError and the generation — pin, groups, ask memo, version —
// stays as it was, still answering completely. The next refresh that
// succeeds diffs against that unmoved pin.
//
// Affected groups are found without running anything, and in one
// place: every tree the delta touches — inserted, deleted, and both
// sides of a rewrite — is matched against every rule body
// (engine.AffectedRules), and a cached group is affected iff its slice
// — construct and support rules alike — contains an affected rule
// (demandCache.dependents). A rule the delta cannot reach directly or
// through minted activations is, by slice closure, provably
// byte-identical after the refresh.
package mediator

import (
	"context"
	"fmt"
	"slices"

	"yat/internal/delta"
	"yat/internal/engine"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Fallback reasons carried by KindDeltaFallback trace events.
const (
	// ReasonDeletions: the delta deletes or rewrites entries; removal
	// is non-monotone under §4.2 blocking, so patching is unsound.
	ReasonDeletions = "deletions"
	// ReasonExceptionRules: the program has exception rules, which
	// fire on the complement of the matched inputs — any delta can
	// change their output.
	ReasonExceptionRules = "exception-rules"
	// ReasonMultiPatternJoin: a slice rule joins several body
	// patterns; a delta-seeded run would miss joins between new and
	// old bindings.
	ReasonMultiPatternJoin = "multi-pattern-join"
	// ReasonSkolemDeref: a construct head dereferences a Skolem (^P);
	// the patch could bake a partial value of a cached identity into
	// other outputs.
	ReasonSkolemDeref = "skolem-deref"
	// ReasonTypedReference: a slice rule's match reads other entries
	// through a typed reference (engine.ReadsOtherEntries); an inserted
	// entry can change the match of an old one that refers to it, which
	// a delta-seeded run never re-activates.
	ReasonTypedReference = "typed-reference"
	// ReasonOutputCollision: the delta run minted an identity the
	// cache already holds — the new bindings belong in an existing
	// group, which only a re-run can rebuild.
	ReasonOutputCollision = "output-collision"
	// ReasonDeltaRunError: the delta-seeded run itself failed; the
	// plain re-run decides.
	ReasonDeltaRunError = "delta-run-error"
	// ReasonSliceRunError: the fallback re-run failed too; the
	// affected groups are dropped and the error is returned.
	ReasonSliceRunError = "slice-run-error"
	// ReasonDegradedSource: the refreshed source was failing in the
	// pinned snapshot; there is no old side to diff against.
	ReasonDegradedSource = "degraded-source"
	// ReasonFetchFailed: the refresh fetch left a source down. The
	// refreshed one: the refresh fails and the generation is kept.
	// Another one: there is no complete new picture to diff, and a dead
	// neighbour must not freeze this source's refreshes — wholesale.
	ReasonFetchFailed = "fetch-failed"
	// ReasonNoBaseline: the generation was restored from a snapshot, so
	// it pins no input store to diff against.
	ReasonNoBaseline = "no-baseline"
)

// deltaOutcome summarizes one refresh for counters and trace events.
type deltaOutcome struct {
	// wholesale: the whole demand generation must be invalidated
	// (tier 3). fallback: the refresh was absorbed by a slice re-run
	// (tier 2), or not at all — the refreshed source's fetch failed.
	// Neither set: absorbed incrementally (tier 1, possibly trivially —
	// empty delta or no cached dependents).
	wholesale bool
	fallback  bool
	reason    string
	ins, del  int
	chg       int
	patched   int
}

func (o deltaOutcome) detail(name string) string {
	if o.reason != "" {
		return fmt.Sprintf("source=%s reason=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
			name, o.reason, o.ins, o.del, o.chg, o.patched)
	}
	return fmt.Sprintf("source=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
		name, o.ins, o.del, o.chg, o.patched)
}

// refreshDelta is the demand-mode tail of RefreshSource: diff, patch
// or re-run under the generation lock, then count and trace the
// outcome. Wholesale invalidation happens here, after the generation
// lock is released — Invalidate takes m.mu, and the established lock
// order (Reload) is m.mu before g.mu.
func (m *Mediator) refreshDelta(ctx context.Context, name string) error {
	out, err := m.applyDelta(ctx, m.state(), name)
	kind, count := trace.KindDeltaApplied, &m.deltaRuns
	if out.wholesale || out.fallback {
		kind, count = trace.KindDeltaFallback, &m.deltaFallbacks
	}
	count.Add(1)
	m.patchedRules.Add(int64(out.patched))
	if m.opts.Trace != nil {
		m.opts.Trace.Emit(trace.Event{Kind: kind, Phase: trace.PhaseSlice,
			Detail: out.detail(name), Count: out.patched})
	}
	if out.wholesale {
		m.Invalidate()
	}
	return err
}

// applyDelta performs the diff and the patch/re-run under the
// generation lock, serializing with ensureDemand's misses. Asks that
// hit keep reading the published view while it runs; its commit
// publishes the next one, so an ask observes the cache before or after
// the refresh, never mid-patch.
func (m *Mediator) applyDelta(ctx context.Context, st *progState, name string) (deltaOutcome, error) {
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()

	if slices.Contains(g.pin.degraded(), name) {
		return deltaOutcome{wholesale: true, reason: ReasonDegradedSource}, nil
	}
	if g.cache.view().cachedRules() == 0 {
		// Cold cache: nothing to patch; dropping the pin makes the next
		// Ask fetch fresh.
		g.pin = nil
		return deltaOutcome{}, nil
	}
	next, err := m.fetch(ctx)
	if err == nil {
		err = next.failure(name)
	}
	if err != nil {
		// The pin is the last good snapshot: a refresh that cannot
		// replace it keeps it, and everything computed from it.
		return deltaOutcome{fallback: true, reason: ReasonFetchFailed}, err
	}
	prev := g.pin.store()
	if prev == nil {
		return deltaOutcome{wholesale: true, reason: ReasonNoBaseline}, nil
	}
	if len(next.degraded()) > 0 {
		return deltaOutcome{wholesale: true, reason: ReasonFetchFailed}, nil
	}
	// Every path below leaves the cache consistent with the new fetch —
	// patched, re-run, evicted or provably unaffected — so the pin
	// advances here, once.
	g.pin = next
	inputs := next.store()

	d := delta.Diff(prev, inputs)
	out := deltaOutcome{ins: len(d.Inserted), del: len(d.Deleted), chg: len(d.Changed)}
	if d.Empty() {
		return out, nil
	}
	groups := m.affectedGroups(st, g, d)
	if len(groups) == 0 {
		// The delta is real but no cached rule can observe it.
		return out, nil
	}
	sl := st.facts.SliceFor(groups...)

	reason := tier1Blocker(st.prog, sl, d)
	if reason == "" {
		patched, ok, runErr := m.insertPatch(ctx, st, g, sl, d, inputs)
		if runErr == nil && ok {
			out.patched = patched
			return out, nil
		}
		if runErr != nil {
			reason = ReasonDeltaRunError
		} else {
			reason = ReasonOutputCollision
		}
	}

	// Tier 2: re-run the union slice of the affected groups over the
	// new inputs and swap it into the cache; unaffected groups stay.
	out.fallback = true
	out.reason = reason
	res, runErr := engine.RunSlice(ctx, st.prog, inputs, sl, m.opts)
	if runErr != nil {
		g.failed(runErr)
		g.cache.evict(groups...)
		out.reason = ReasonSliceRunError
		return out, fmt.Errorf("mediator: delta refresh of %s: %w", name, runErr)
	}
	g.ran(res.Stats)
	out.patched, _ = g.cache.commit(sl.Construct, res.Outputs, false)
	return out, nil
}

// affectedGroups returns the cached functor groups whose slices
// contain a rule the delta can feed (engine.AffectedRules): a rule some
// inserted, deleted or rewritten tree — old side or new — can match.
// Matching the old trees ignores §4.2 blocking and conformance, so it
// names every rule that did match them. Slice closure extends direct
// reachability to derived activations: a rule fed only through minted
// activations lives in the same slice as its minters.
func (m *Mediator) affectedGroups(st *progState, g *demandGen, d *delta.Delta) []string {
	touched := make([]tree.StoreEntry, 0, len(d.Inserted)+len(d.Deleted)+2*len(d.Changed))
	touched = append(touched, d.Inserted...)
	touched = append(touched, d.Deleted...)
	for _, c := range d.Changed {
		touched = append(touched,
			tree.StoreEntry{Name: c.Name, Tree: c.Old}, tree.StoreEntry{Name: c.Name, Tree: c.New})
	}
	return g.cache.dependents(engine.AffectedRules(st.prog, touched))
}

// tier1Blocker reports why the insert patch would be unsound for this
// slice and delta — or "" when it is provably safe to try.
func tier1Blocker(prog *yatl.Program, sl *engine.Slice, d *delta.Delta) string {
	if !d.InsertOnly() {
		return ReasonDeletions
	}
	for _, r := range prog.Rules {
		if r.Exception {
			return ReasonExceptionRules
		}
	}
	for _, r := range sl.Construct {
		if reason := ruleBlocksPatch(r, true); reason != "" {
			return reason
		}
	}
	for _, r := range sl.Support {
		if reason := ruleBlocksPatch(r, false); reason != "" {
			return reason
		}
	}
	return ""
}

func ruleBlocksPatch(r *yatl.Rule, construct bool) string {
	if len(r.Body) > 1 {
		return ReasonMultiPatternJoin
	}
	if engine.ReadsOtherEntries(r) {
		return ReasonTypedReference
	}
	if construct && r.Head.Tree != nil {
		for _, ref := range r.Head.Tree.PatternRefs() {
			if !ref.Ref {
				return ReasonSkolemDeref
			}
		}
	}
	return ""
}

// insertPatch runs the slice in delta-evaluation mode and appends its
// outputs to the cache. ok is false when an output identity collides
// with a cached one — the caller re-runs instead. Holds g.mu (via
// applyDelta).
func (m *Mediator) insertPatch(ctx context.Context, st *progState, g *demandGen,
	sl *engine.Slice, d *delta.Delta, inputs *tree.Store) (patched int, ok bool, err error) {
	seeds := tree.NewStore()
	for _, e := range d.Inserted {
		seeds.Put(e.Name, e.Tree)
	}
	res, err := engine.RunSlice(ctx, st.prog, inputs, sl, m.opts, engine.WithDeltaSeeds(seeds))
	if err != nil {
		return 0, false, err
	}
	patched, ok = g.cache.commit(sl.Construct, res.Outputs, true)
	if ok {
		g.ran(res.Stats)
	}
	return patched, ok, nil
}
