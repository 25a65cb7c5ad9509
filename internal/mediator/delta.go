// Incremental view maintenance: the delta-propagation half of
// Mediator.RefreshSource.
//
// The refreshed fetch is diffed (internal/delta) against the input
// snapshot this generation's cache was computed from — the pin, see
// inputs.go — and absorbed one of two ways:
//
//  1. In place. The union slice of the cached groups the delta can
//     reach is re-run over the new inputs and committed over them;
//     unaffected groups stay warm, far cheaper than a wholesale drop
//     when the source feeds few of the cached groups. An empty delta, or
//     one no cached group can observe, runs nothing. The re-run is the
//     same slice run a cold ask performs, so the refreshed groups are
//     byte-identical to a fresh run's by construction: there is no
//     second compute path whose soundness has to be argued.
//
//  2. Wholesale invalidation. A source that was failing in the pinned
//     snapshot has no old side to match (its data was absent), a
//     restored generation has no pinned store to diff against, and a
//     fetch in which another source degraded has no complete new
//     picture — all fall back to Invalidate().
//
// A fetch that leaves the refreshed source itself down is neither: the
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
)

// Fallback reasons carried by KindDeltaFallback trace events.
const (
	// ReasonSliceRunError: the re-run of the affected slice failed; the
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
	// wholesale: the whole demand generation must be invalidated.
	wholesale bool
	// reason is why the refresh was not absorbed in place (wholesale, a
	// failed fetch, a failed re-run); "" when it was — by a re-run of
	// the affected slice or, for an empty delta, a cold cache or a
	// delta no cached group observes, with nothing to run.
	reason   string
	ins, del int
	chg      int
	patched  int
}

func (o deltaOutcome) detail(name string) string {
	if o.reason != "" {
		return fmt.Sprintf("source=%s reason=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
			name, o.reason, o.ins, o.del, o.chg, o.patched)
	}
	return fmt.Sprintf("source=%s inserted=%d deleted=%d changed=%d patched-rules=%d",
		name, o.ins, o.del, o.chg, o.patched)
}

// refreshDelta is the demand-mode tail of RefreshSource: diff and
// re-run under the generation lock, then count and trace the outcome.
// Wholesale invalidation happens here, after the generation lock is
// released — Invalidate takes m.mu, and the established lock order
// (Reload) is m.mu before g.mu.
func (m *Mediator) refreshDelta(ctx context.Context, name string) error {
	out, err := m.applyDelta(ctx, name)
	kind, count := trace.KindDeltaApplied, &m.deltaRuns
	if out.reason != "" {
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

// lockDemand locks the current demand generation and returns the
// program state that holds it. A Reload that cloned the generation
// before the lock was taken marked it superseded, and the refresh
// follows it to the clone — re-reading the state under m.mu, which
// Reload holds until it has published the clone. A refresh that takes
// the lock first is carried over by the clone, pin and groups alike.
// Either way no Reload loses a refresh.
func (m *Mediator) lockDemand() *progState {
	st := m.state()
	for {
		if m.beforeRefreshLock != nil {
			m.beforeRefreshLock()
		}
		st.dgen.mu.Lock()
		if !st.dgen.superseded {
			return st
		}
		st.dgen.mu.Unlock()
		m.mu.Lock()
		st = m.state()
		m.mu.Unlock()
	}
}

// applyDelta performs the diff and the re-run under the generation
// lock, serializing with ensureDemand's misses. Asks that hit keep
// reading the published view while it runs; its commit publishes the
// next one, so an ask observes the cache before or after the refresh,
// never mid-way.
func (m *Mediator) applyDelta(ctx context.Context, name string) (deltaOutcome, error) {
	st := m.lockDemand()
	g := st.dgen
	defer g.mu.Unlock()

	if slices.Contains(g.pin.degraded(), name) {
		return deltaOutcome{wholesale: true, reason: ReasonDegradedSource}, nil
	}
	if g.cache.view().cachedRules() == 0 {
		// Cold cache: nothing to re-run; dropping the pin makes the next
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
		return deltaOutcome{reason: ReasonFetchFailed}, err
	}
	prev := g.pin.store()
	if prev == nil {
		return deltaOutcome{wholesale: true, reason: ReasonNoBaseline}, nil
	}
	if len(next.degraded()) > 0 {
		return deltaOutcome{wholesale: true, reason: ReasonFetchFailed}, nil
	}
	// Every path below leaves the cache consistent with the new fetch —
	// re-run, evicted or provably unaffected — so the pin advances here,
	// once.
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
	// Re-run the union slice of the affected groups over the new inputs
	// and swap it into the cache; unaffected groups stay.
	sl := st.slices.get(groups...)
	res, err := engine.RunSlice(ctx, st.prog, inputs, sl, m.opts)
	if err != nil {
		g.failed(err)
		g.cache.evict(groups...)
		out.reason = ReasonSliceRunError
		return out, fmt.Errorf("mediator: delta refresh of %s: %w", name, err)
	}
	g.ran(res.Stats)
	rules := sl.Construct
	if m.refreshCommitsOneGroup {
		rules = rules[:1]
	}
	out.patched = g.cache.commit(rules, res.Outputs)
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
