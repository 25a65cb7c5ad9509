package mediator

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/snapshot"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

const viewPattern = `view < -> tag -> TAG, -> name -> N, -> city -> C >`

func selectiveMediator(t *testing.T, opts ...engine.Option) *Mediator {
	t.Helper()
	prog := yatl.MustParse(versionedSelective("v1", "v1", "v1"))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	return New(prog, inputs, append([]engine.Option{WithDemandDriven(true)}, opts...)...)
}

// render flattens answers for byte-level comparison.
func render(as []Answer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name.String() + " " + a.Binding.Key()
	}
	return out
}

func sameAnswers(t *testing.T, got, want []Answer, label string) {
	t.Helper()
	g, w := render(got), render(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d answers, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: answer %d = %q, want %q", label, i, g[i], w[i])
		}
	}
	if len(w) == 0 {
		t.Fatalf("%s: vacuous comparison (no answers)", label)
	}
}

// The tentpole property: a restored mediator's first Ask is
// byte-identical to the cold-computed answer and registers as a
// demand-cache hit — at every parallelism, because the options hash
// deliberately ignores the worker count.
func TestSnapshotRestoreWarmStart(t *testing.T) {
	warm := selectiveMediator(t)
	cold, err := warm.Ask(viewPattern, "Pview1")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			m := selectiveMediator(t, engine.WithParallelism(par))
			if err := m.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if ver, _ := (&cacheWatch{}).look(t, m); ver == 0 {
				t.Fatal("the restored cache is at version 0: the load bypassed commit")
			}
			st := m.Stats()
			if !st.Restored {
				t.Fatal("Stats.Restored = false after Restore")
			}
			got, err := m.Ask(viewPattern, "Pview1")
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, got, cold, "restored first ask")
			st = m.Stats()
			if st.CacheHits != 1 || st.CacheMisses != 0 {
				t.Fatalf("first ask after restore: hits=%d misses=%d, want 1/0",
					st.CacheHits, st.CacheMisses)
			}
			// The snapshot carries the donor's run counter (one slice run)
			// and a fully warm restored ask adds none.
			if st.SliceRuns != 1 {
				t.Fatalf("slice runs after restored ask: %d, want the donor's 1", st.SliceRuns)
			}
		})
	}
}

// A restored memoized ask short-circuits matching entirely, exactly
// like a warm repeat within one process.
func TestSnapshotCarriesAskMemo(t *testing.T) {
	warm := selectiveMediator(t)
	first, err := warm.Ask(viewPattern, "Pview2")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Payload.AskMemo) != 1 {
		t.Fatalf("snapshot carries %d memo entries, want 1", len(snap.Payload.AskMemo))
	}

	m := selectiveMediator(t)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got, err := m.Ask(viewPattern, "Pview2")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, first, "memoized restored ask")
}

// Asks that arrived pre-parsed (AskPattern) memoize in-process but
// cannot be persisted: their snapshot identity is a pointer.
func TestSnapshotSkipsPatternOnlyMemos(t *testing.T) {
	m := selectiveMediator(t)
	pt := mustParsePattern(t, viewPattern)
	if _, err := m.AskPattern(pt, "Pview1"); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Payload.AskMemo) != 0 {
		t.Fatalf("pre-parsed ask persisted %d memo entries, want 0", len(snap.Payload.AskMemo))
	}
	// The rule cache itself still persists.
	if len(snap.Payload.Rules) == 0 {
		t.Fatal("no rule cache in snapshot")
	}
}

func mustParsePattern(t *testing.T, src string) *pattern.PTree {
	t.Helper()
	pt, err := parsePatternCached(src)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// Every identity mismatch deterministically refuses the restore and
// leaves the mediator cold.
func TestRestoreRefusesMismatches(t *testing.T) {
	donor := selectiveMediator(t)
	if _, err := donor.Ask(viewPattern, "Pview1"); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	reasonOf := func(t *testing.T, err error) snapshot.Reason {
		t.Helper()
		var lerr *snapshot.LoadError
		if !errors.As(err, &lerr) {
			t.Fatalf("want *snapshot.LoadError, got %T: %v", err, err)
		}
		return lerr.Reason
	}

	t.Run("program-hash", func(t *testing.T) {
		other := New(yatl.MustParse(versionedSelective("v2", "v1", "v1")),
			workload.BrochureStore(6, 2, 5, 11), WithDemandDriven(true))
		err := other.Restore(snap)
		if got := reasonOf(t, err); got != snapshot.ReasonProgramHash {
			t.Fatalf("reason %q, want %q", got, snapshot.ReasonProgramHash)
		}
		if st := other.Stats(); st.Restored || st.CachedRules != 0 {
			t.Fatalf("refused restore left state: %+v", st)
		}
	})

	t.Run("options-hash", func(t *testing.T) {
		reg := engine.NewRegistry()
		reg.Register(engine.Func{Name: "extra", Fn: func([]tree.Value) (tree.Value, error) {
			return tree.String("x"), nil
		}})
		other := selectiveMediator(t, engine.WithRegistry(reg))
		err := other.Restore(snap)
		if got := reasonOf(t, err); got != snapshot.ReasonOptionsHash {
			t.Fatalf("reason %q, want %q", got, snapshot.ReasonOptionsHash)
		}
	})

	// A payload whose hashes verify but which caches a rule the program
	// does not construct is refused the same way: error, cold mediator.
	t.Run("unknown-rule", func(t *testing.T) {
		forged := *snap
		payload := *snap.Payload
		payload.Rules = append([]snapshot.RuleCache{{Rule: "NoSuchRule", Cached: true}}, payload.Rules...)
		forged.Payload = &payload
		other := selectiveMediator(t)
		if err := other.Restore(&forged); err == nil {
			t.Fatal("restore accepted a cached rule the program does not have")
		}
		if st := other.Stats(); st.Restored || st.CachedRules != 0 {
			t.Fatalf("refused restore left state: %+v", st)
		}
	})

	t.Run("full-mode", func(t *testing.T) {
		full := New(donor.Program(), workload.BrochureStore(6, 2, 5, 11))
		if err := full.Restore(snap); !errors.Is(err, ErrSnapshotDemandOnly) {
			t.Fatalf("full-mode restore: %v, want ErrSnapshotDemandOnly", err)
		}
		if _, err := full.Snapshot(); !errors.Is(err, ErrSnapshotDemandOnly) {
			t.Fatalf("full-mode snapshot: %v, want ErrSnapshotDemandOnly", err)
		}
	})
}

// Satellite: Reload's warm-cache carryover keys on the program+options
// hash, not rule text alone. Mutating the registry between reloads
// changes the options hash, so a reload with byte-identical program
// text must still drop the cache.
func TestReloadDropsCacheOnOptionsChange(t *testing.T) {
	reg := engine.NewRegistry()
	prog := yatl.MustParse(versionedSelective("v1", "v1", "v1"))
	inputs := workload.BrochureStore(6, 2, 5, 11)
	m := New(prog, inputs, WithDemandDriven(true), engine.WithRegistry(reg))
	if _, err := m.Ask(viewPattern, "Pview1"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CachedRules == 0 {
		t.Fatal("warm-up cached nothing")
	}

	// Identical rule text, unchanged registry: the cache survives.
	m.Reload(yatl.MustParse(versionedSelective("v1", "v1", "v1")))
	if st := m.Stats(); st.CachedRules == 0 {
		t.Fatal("reload with identical text and options dropped the cache")
	}

	// Identical rule text, mutated registry surface: sliceUnchanged
	// sees identical rules, but the options hash differs — carryover
	// must not happen.
	reg.Register(engine.Func{Name: "extra", Fn: func([]tree.Value) (tree.Value, error) {
		return tree.String("x"), nil
	}})
	m.Reload(yatl.MustParse(versionedSelective("v1", "v1", "v1")))
	if st := m.Stats(); st.CachedRules != 0 {
		t.Fatalf("reload after registry change kept %d cached rules, want 0", st.CachedRules)
	}
}

// Restore over sources: a degraded-source record survives the round
// trip, so RefreshSource in the restored process still knows to drop
// the generation when the source recovers.
func TestSnapshotRoundTripsDegraded(t *testing.T) {
	donor := selectiveMediator(t)
	if _, err := donor.Ask(viewPattern, "Pview1"); err != nil {
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Payload.Degraded = []string{"src1"}

	m := selectiveMediator(t)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	g := m.state().dgen
	g.mu.Lock()
	defer g.mu.Unlock()
	if !slices.Contains(g.pin.degraded(), "src1") {
		t.Fatal("degraded record lost in restore")
	}
}
