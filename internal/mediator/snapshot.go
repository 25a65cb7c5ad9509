// Durable warm starts: the mediator half of internal/snapshot.
//
// Snapshot serializes the current demand generation — the read
// buckets, the per-rule cache with its recorded source dependencies,
// and the ask memo — through the tree layer's canonical display
// syntax, stamped with the progState's program and options hashes.
// Restore is the inverse: it re-parses the payload into a fresh
// demand generation and swaps it in atomically, but only after the
// snapshot's hashes verify against what this mediator is about to
// serve. Any mismatch returns a typed *snapshot.LoadError and leaves
// the mediator exactly as cold as it was — the deterministic
// fallback the whole layer is built around.
package mediator

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
		Store:    tree.FormatEntries(g.cache.buckets()),
		Runs:     g.runs,
		Stats:    g.stats,
		Degraded: g.pin.degraded(),
	}

	// One RuleCache per rule that holds any cached state: construct
	// rules carry entries (possibly none — "cached and empty" must
	// round-trip), support rules carry only their source record.
	sources := g.cache.sources()
	for rule, entries := range g.cache.rules() {
		rc := snapshot.RuleCache{Rule: rule, Cached: true, Sources: sources[rule]}
		for _, e := range entries {
			rc.Entries = append(rc.Entries, snapshot.Entry{Name: e.Name.String(), Tree: e.Tree.String()})
		}
		payload.Rules = append(payload.Rules, rc)
		delete(sources, rule)
	}
	for rule, keys := range sources {
		payload.Rules = append(payload.Rules, snapshot.RuleCache{Rule: rule, Sources: keys})
	}
	sort.Slice(payload.Rules, func(i, j int) bool { return payload.Rules[i].Rule < payload.Rules[j].Rule })

	// Memo entries persist only when the ask arrived as source text
	// (AskContext); pre-parsed asks have no re-keyable identity in
	// another process.
	for _, val := range g.cache.memos() {
		if val.src == "" {
			continue
		}
		me := snapshot.MemoEntry{Pattern: val.src, Functors: val.functors,
			Answers: []snapshot.MemoAnswer{}}
		for _, a := range val.answers {
			ma := snapshot.MemoAnswer{Name: a.Name.String()}
			if len(a.Binding) > 0 {
				ma.Binding = make(map[string]string, len(a.Binding))
				for v, tv := range a.Binding {
					ma.Binding[v] = tv.Display()
				}
			}
			me.Answers = append(me.Answers, ma)
		}
		payload.AskMemo = append(payload.AskMemo, me)
	}
	sort.Slice(payload.AskMemo, func(i, j int) bool {
		a, b := payload.AskMemo[i], payload.AskMemo[j]
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		return strings.Join(a.Functors, "\x00") < strings.Join(b.Functors, "\x00")
	})

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
// intended call site is boot, before traffic; a restore over a warm
// generation replaces it, exactly like an Invalidate followed by a
// warm fill.
func (m *Mediator) Restore(s *snapshot.Snapshot) error {
	if !m.demand {
		return ErrSnapshotDemandOnly
	}
	st := m.state()
	if err := s.Verify(st.progHash, st.optsHash); err != nil {
		return err
	}

	g := newDemandGen(st.facts)
	g.restored = true
	// The store rendering exists to share trees: a rule's entry reuses
	// the store's tree when it is still the one committed there.
	store, err := tree.ParseStore(s.Payload.Store)
	if err != nil {
		return fmt.Errorf("mediator: restoring snapshot store: %w", err)
	}
	run := sliceRun{outputs: map[string][]tree.StoreEntry{}, sources: map[string]map[string]bool{}}
	for _, rc := range s.Payload.Rules {
		if rc.Cached {
			r, ok := st.prog.Rule(rc.Rule)
			if !ok || r.Exception {
				return fmt.Errorf("mediator: restoring rule %s: the program constructs no such rule", rc.Rule)
			}
			run.functors = append(run.functors, r.Head.Functor)
			entries := make([]tree.StoreEntry, 0, len(rc.Entries))
			for _, pe := range rc.Entries {
				name, err := tree.ParseName(pe.Name)
				if err != nil {
					return fmt.Errorf("mediator: restoring rule %s entry name %q: %w", rc.Rule, pe.Name, err)
				}
				t, ok := store.Get(name)
				if !ok || t.String() != pe.Tree {
					if t, err = tree.Parse(pe.Tree); err != nil {
						return fmt.Errorf("mediator: restoring rule %s entry %q: %w", rc.Rule, pe.Name, err)
					}
				}
				entries = append(entries, tree.StoreEntry{Name: name, Tree: t})
			}
			run.outputs[rc.Rule] = entries
		}
		if len(rc.Sources) > 0 {
			set := make(map[string]bool, len(rc.Sources))
			for _, k := range rc.Sources {
				set[k] = true
			}
			run.sources[rc.Rule] = set
		}
	}
	g.cache.commit(run, false)
	g.pin = restoredSnap(s.Payload.Degraded)
	g.stats = s.Payload.Stats
	g.runs = s.Payload.Runs

	for _, me := range s.Payload.AskMemo {
		pt, err := parsePatternCached(me.Pattern)
		if err != nil {
			return fmt.Errorf("mediator: restoring memoized pattern %q: %w", me.Pattern, err)
		}
		answers := make([]Answer, 0, len(me.Answers))
		for _, ma := range me.Answers {
			a, err := ParseAnswer(ma.Name, ma.Binding)
			if err != nil {
				return fmt.Errorf("mediator: restoring ask memo of %q: %w", me.Pattern, err)
			}
			answers = append(answers, a)
		}
		key := askKey{pt: pt, functors: strings.Join(me.Functors, "\x00")}
		g.cache.memoize(key, me.Pattern, me.Functors, answers, g.cache.version())
	}

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
