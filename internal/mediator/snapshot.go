// Durable warm starts: the mediator half of internal/snapshot.
//
// Snapshot serializes the current demand generation — the per-rule
// cache, every cached entry once — through the tree layer's canonical
// display syntax, stamped with the progState's program and options
// hashes. The read buckets and the ask memo are not written: commit
// derives the buckets from the rule entries, and an ask's first arrival
// after a restore is a demand-cache hit that memoizes it again. Restore
// is the inverse: it re-parses the payload into a fresh demand
// generation and swaps it in atomically, but only after the snapshot's
// hashes verify against what this mediator is about to serve. Any mismatch, and any payload the program could not
// have produced, returns a typed *snapshot.LoadError and leaves the
// mediator exactly as cold as it was — the deterministic fallback the
// whole layer is built around.
package mediator

import (
	"errors"
	"fmt"
	"sort"

	"yat/internal/snapshot"
	"yat/internal/tree"
)

// ErrSnapshotDemandOnly reports a Snapshot or Restore on a
// full-materialization mediator. The durable generation store
// persists the demand-mode per-rule cache; a full-mode mediator has
// no such cache to persist or warm.
var ErrSnapshotDemandOnly = errors.New("mediator: snapshot/restore requires a demand-driven mediator (WithDemandDriven)")

// Snapshot captures the current demand generation as a persistable
// snapshot, keyed by the canonical program+options hashes so a
// restore can prove it is warming the exact computation it would
// otherwise perform cold. In-flight asks are unaffected: the capture
// happens under the generation lock against a consistent view.
func (m *Mediator) Snapshot() (*snapshot.Snapshot, error) {
	if !m.demand {
		return nil, ErrSnapshotDemandOnly
	}
	st := m.state()
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()

	payload := &snapshot.Generation{
		Runs:     g.runs,
		Stats:    g.stats,
		Degraded: g.pin.degraded(),
	}

	// One RuleCache per cached construct rule, entries possibly none:
	// "cached and empty" must round-trip.
	for rule, entries := range g.cache.rules() {
		rc := snapshot.RuleCache{Rule: rule, Cached: true}
		for _, e := range entries {
			rc.Entries = append(rc.Entries, snapshot.Entry{Name: e.Name.String(), Tree: e.Tree.String()})
		}
		payload.Rules = append(payload.Rules, rc)
	}
	sort.Slice(payload.Rules, func(i, j int) bool { return payload.Rules[i].Rule < payload.Rules[j].Rule })

	return &snapshot.Snapshot{
		Format:      snapshot.FormatVersion,
		ProgramHash: st.progHash,
		OptionsHash: st.optsHash,
		Program:     st.prog.Name,
		Generation:  st.num,
		Payload:     payload,
	}, nil
}

// Restore warms the mediator from a snapshot: it verifies the
// snapshot's program and options hashes against the current state,
// re-parses the payload into a fresh demand generation, and swaps it
// in atomically. On any error the mediator is unchanged (cold). The
// restored generation's ask memo starts empty. The intended call site
// is boot, before traffic; a restore over a warm generation replaces
// it, exactly like an Invalidate followed by a warm fill.
func (m *Mediator) Restore(s *snapshot.Snapshot) error {
	if !m.demand {
		return ErrSnapshotDemandOnly
	}
	st := m.state()
	if err := s.Verify(st.progHash, st.optsHash); err != nil {
		return err
	}
	corrupt := func(format string, args ...any) error {
		return &snapshot.LoadError{Reason: snapshot.ReasonCorrupt, Err: fmt.Errorf(format, args...)}
	}
	if s.Payload == nil {
		return corrupt("no payload")
	}

	// Rules of one group that mint the same identity each list the shared
	// entry; the second listing reuses the first one's parse.
	type parsed struct {
		src string
		tree.StoreEntry
	}
	shared := map[string]parsed{}
	run := sliceRun{outputs: map[string][]tree.StoreEntry{}}
	for _, rc := range s.Payload.Rules {
		// Builds that kept a per-rule source ledger wrote support rules as
		// cached:false records; nothing restores from them.
		if rc.Cached {
			r, ok := st.prog.Rule(rc.Rule)
			if !ok || r.Exception {
				return corrupt("rule %s: the program constructs no such rule", rc.Rule)
			}
			run.functors = append(run.functors, r.Head.Functor)
			entries := make([]tree.StoreEntry, 0, len(rc.Entries))
			for _, pe := range rc.Entries {
				p, ok := shared[pe.Name]
				if !ok || p.src != pe.Tree {
					p.src = pe.Tree
					var err error
					if p.Name, err = tree.ParseName(pe.Name); err != nil {
						return corrupt("rule %s entry name %q: %w", rc.Rule, pe.Name, err)
					}
					if p.Tree, err = tree.Parse(pe.Tree); err != nil {
						return corrupt("rule %s entry %q: %w", rc.Rule, pe.Name, err)
					}
					shared[pe.Name] = p
				}
				entries = append(entries, p.StoreEntry)
			}
			run.outputs[rc.Rule] = entries
		}
	}
	// Group presence is the only "cached" flag, so a group must arrive
	// whole: commit would file a missing sibling rule as cached and empty.
	for _, f := range run.functors {
		for _, r := range st.facts.SliceFor(f).Construct {
			if r.Head.Functor != f {
				continue // a dereferenced group: cached, or not, on its own
			}
			if _, ok := run.outputs[r.Name]; !ok {
				return corrupt("functor %s: rule %s of its group is not cached", f, r.Name)
			}
		}
	}

	g := newDemandGen(st.facts)
	g.restored = true
	g.cache.commit(run, false)
	g.pin = restoredSnap(s.Payload.Degraded)
	g.stats = s.Payload.Stats
	g.runs = s.Payload.Runs

	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check against the state current at swap time: a reload racing
	// the restore must not have its program replaced by a stale warm
	// cache.
	cur := m.cur
	if cur.progHash != st.progHash || cur.optsHash != st.optsHash {
		return s.Verify(cur.progHash, cur.optsHash)
	}
	m.cur = &progState{prog: cur.prog, gen: &generation{}, facts: cur.facts,
		progHash: cur.progHash, optsHash: cur.optsHash, num: cur.num, dgen: g}
	return nil
}
