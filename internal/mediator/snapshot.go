// Durable warm starts: the mediator half of internal/snapshot.
//
// Snapshot serializes the current demand generation — the cached
// functor groups, every cached entry once — through the tree layer's
// canonical display syntax, stamped with the progState's program and
// options hashes. The leaf-path indexes and the ask memo are not
// written: commit derives an index from its bucket, and an ask's first
// arrival after a restore is a demand-cache hit that memoizes it again.
// Restore is the inverse: it re-parses the payload into a fresh demand
// generation and swaps it in atomically, but only after the snapshot's
// hashes verify against what this mediator is about to serve. Any
// mismatch, and any payload the program could not have produced, returns
// a typed *snapshot.LoadError and leaves the mediator exactly as cold as
// it was — the deterministic fallback the whole layer is built around.
package mediator

import (
	"errors"
	"fmt"

	"yat/internal/snapshot"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// ErrSnapshotDemandOnly reports a Snapshot or Restore on a
// full-materialization mediator. The durable generation store
// persists the demand cache; a full-mode mediator has no such cache
// to persist or warm.
var ErrSnapshotDemandOnly = errors.New("mediator: snapshot/restore requires a demand-driven mediator (WithDemandDriven)")

// Snapshot captures the current demand generation as a persistable
// snapshot, keyed by the canonical program+options hashes so a
// restore can prove it is warming the exact computation it would
// otherwise perform cold. In-flight asks are unaffected: the capture
// reads one published view under the generation lock, which keeps the
// pin and the run ledger still while it does.
func (m *Mediator) Snapshot() (*snapshot.Snapshot, error) {
	if !m.demand {
		return nil, ErrSnapshotDemandOnly
	}
	st := m.state()
	g := st.dgen
	g.mu.Lock()
	defer g.mu.Unlock()

	l, v := g.ledger.Load(), g.cache.view()
	payload := &snapshot.Generation{
		Runs:     l.runs,
		Stats:    l.stats,
		Degraded: g.pin.degraded(),
	}

	// One record per cached group, entries possibly none: "cached and
	// empty" must round-trip.
	for _, f := range v.cached() {
		bucket := v.bucket(f)
		rec := snapshot.Group{Functor: f, Entries: make([]snapshot.Entry, 0, len(bucket))}
		for _, e := range bucket {
			rec.Entries = append(rec.Entries, snapshot.Entry{Name: e.Name.String(), Tree: e.Tree.String()})
		}
		payload.Groups = append(payload.Groups, rec)
	}

	return &snapshot.Snapshot{
		Format:      snapshot.FormatVersion,
		ProgramHash: st.progHash,
		OptionsHash: st.optsHash,
		Program:     st.comp.Program().Name,
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

	// A record is a whole group: the functor some construct rule of the
	// program mints, and nothing but identities of that functor, each
	// once. Records come sorted by functor, so none repeats.
	var rules []*yatl.Rule
	outputs := tree.NewStore()
	for i, rec := range s.Payload.Groups {
		if i > 0 && rec.Functor <= s.Payload.Groups[i-1].Functor {
			return corrupt("functor %s: records are not sorted by functor", rec.Functor)
		}
		known := len(rules)
		for _, r := range st.comp.Slice(rec.Functor).Construct {
			if r.Head.Functor == rec.Functor {
				rules = append(rules, r)
			}
		}
		if len(rules) == known {
			return corrupt("functor %s: no rule of the program mints it", rec.Functor)
		}
		for _, pe := range rec.Entries {
			name, err := tree.ParseName(pe.Name)
			if err != nil {
				return corrupt("functor %s entry name %q: %w", rec.Functor, pe.Name, err)
			}
			if name.Functor != rec.Functor {
				return corrupt("functor %s: entry %q is not of the group", rec.Functor, pe.Name)
			}
			t, err := tree.Parse(pe.Tree)
			if err != nil {
				return corrupt("functor %s entry %q: %w", rec.Functor, pe.Name, err)
			}
			if outputs.Put(name, t) {
				return corrupt("functor %s: entry %q listed twice", rec.Functor, pe.Name)
			}
		}
	}

	g := newDemandGen(runLedger{stats: s.Payload.Stats, runs: s.Payload.Runs})
	g.restored = true
	g.cache.commit(rules, outputs)
	g.pin = restoredSnap(s.Payload.Degraded)

	m.mu.Lock()
	defer m.mu.Unlock()
	// Re-check against the state current at swap time: a reload racing
	// the restore must not have its program replaced by a stale warm
	// cache.
	cur := m.state()
	if cur.progHash != st.progHash || cur.optsHash != st.optsHash {
		return s.Verify(cur.progHash, cur.optsHash)
	}
	m.cur.Store(&progState{comp: cur.comp, gen: &generation{},
		progHash: cur.progHash, optsHash: cur.optsHash, num: cur.num, dgen: g})
	return nil
}
