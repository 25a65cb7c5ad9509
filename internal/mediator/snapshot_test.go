package mediator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"yat/internal/engine"
	"yat/internal/snapshot"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

const viewPattern = `view < -> tag -> TAG, -> name -> N, -> city -> C >`

func selectiveMediator(t testing.TB, opts ...engine.Option) *Mediator {
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
// demand-cache hit — with 1, 4 and 8 first asks in flight at once,
// none of which may fall back to a slice run. The snapshot carries no
// ask memo: the first asks match against the restored group and refill
// the memo, so a repeat is a memo hit.
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

	for _, par := range askWidths {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			m := selectiveMediator(t)
			if err := m.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			var watch cacheWatch
			if ver, memo := watch.look(t, m); ver == 0 || memo != 0 {
				t.Fatalf("restored cache at version %d with %d memoized asks, want a committed load and an empty memo", ver, memo)
			}
			st := m.Stats()
			if !st.Restored {
				t.Fatal("Stats.Restored = false after Restore")
			}
			concurrently(par, func() {
				got, err := m.Ask(viewPattern, "Pview1")
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(render(got), render(cold)) {
					t.Errorf("restored first ask:\n got %q\nwant %q", render(got), render(cold))
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			st = m.Stats()
			if st.CacheHits != int64(par) || st.CacheMisses != 0 {
				t.Fatalf("first asks after restore: hits=%d misses=%d, want %d/0",
					st.CacheHits, st.CacheMisses, par)
			}
			// The snapshot carries the donor's run counter (one slice run)
			// and fully warm restored asks add none.
			if st.SliceRuns != 1 {
				t.Fatalf("slice runs after restored asks: %d, want the donor's 1", st.SliceRuns)
			}
			if _, memo := watch.look(t, m); memo != 1 {
				t.Fatalf("the first asks left %d memoized asks, want 1", memo)
			}
			// The repeat is a memo hit: one allocation, the defensive copy.
			var repeat []Answer
			if allocs := testing.AllocsPerRun(50, func() { repeat, err = m.Ask(viewPattern, "Pview1") }); allocs > 1 {
				t.Errorf("repeat of the restored ask allocates %.1f times, want the memo hit's 1", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, repeat, cold, "restored repeat ask")
			if st := m.Stats(); st.CacheMisses != 0 || st.SliceRuns != 1 {
				t.Fatalf("repeat asks: misses=%d slice runs=%d, want 0/1", st.CacheMisses, st.SliceRuns)
			}
		})
	}
}

// TestSnapshotGolden pins the format-3 file of a small selective
// program byte for byte — compact, one record per functor group, sorted,
// every cached entry once, no store rendering and no ask memo — and
// proves the checked-in bytes still decode and restore to the donor's
// answers. YAT_UPDATE_GOLDEN=1 rewrites it.
func TestSnapshotGolden(t *testing.T) {
	newMediator := func() *Mediator {
		return New(yatl.MustParse(versionedSelective("v1", "v1")), workload.BrochureStore(3, 2, 3, 11), WithDemandDriven(true))
	}
	donor := newMediator()
	want, err := donor.Ask(viewPattern)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(snap.Payload.Groups, func(i, j int) bool { return snap.Payload.Groups[i].Functor < snap.Payload.Groups[j].Functor }) {
		t.Error("snapshot groups are not sorted by functor")
	}
	got, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot_format3.golden.json")
	if os.Getenv("YAT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("format-3 snapshot drifted:\n got: %s\nwant: %s", got, golden)
	}
	var env struct{ Payload map[string]json.RawMessage }
	if err := json.Unmarshal(golden, &env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Payload["groups"]; !ok {
		t.Error("payload carries no \"groups\" key")
	}
	for _, key := range []string{"rules", "store", "ask_memo"} {
		if _, ok := env.Payload[key]; ok {
			t.Errorf("payload carries a %q key: a group is its entries, and derived state is not persisted", key)
		}
	}

	decoded, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	m := newMediator()
	if err := m.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := m.Ask(viewPattern)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, restored, want, "ask restored from the golden file")
	if st := m.Stats(); st.CacheMisses != 0 {
		t.Fatalf("restored ask missed the cache %d times", st.CacheMisses)
	}
}

// One reader: a file an earlier build wrote — format 1, format 2 with
// its per-rule records (with and without the source ledger and the
// cached:false support records of its first months), the old format-2
// golden — is never converted. Decode refuses it as a typed version
// mismatch, so there is nothing to hand Restore and the boot is cold.
func TestRestoreParentWrittenSnapshot(t *testing.T) {
	for _, c := range []struct {
		path   string
		format int
	}{
		{"testdata/snapshot_format2.parent.json", 2},
		{"testdata/snapshot_format2.parent_support.json", 2},
		{"testdata/snapshot_format2.golden.json", 2},
		{"../serve/testdata/snapshot_format1.json", 1},
	} {
		t.Run(filepath.Base(c.path), func(t *testing.T) {
			file, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			var env struct{ Format int }
			if err := json.Unmarshal(file, &env); err != nil || env.Format != c.format {
				t.Fatalf("vacuous: the fixture is format %d (%v), want %d", env.Format, err, c.format)
			}
			snap, err := snapshot.Decode(file)
			var lerr *snapshot.LoadError
			if snap != nil || !errors.As(err, &lerr) || lerr.Reason != snapshot.ReasonVersion {
				t.Fatalf("Decode = %v, %v, want no snapshot and a *LoadError (version)", snap, err)
			}
		})
	}
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

	// A payload whose hashes verify but which caches a functor no rule of
	// the program mints is refused the same way: error, cold mediator.
	t.Run("unknown-rule", func(t *testing.T) {
		forged := *snap
		payload := *snap.Payload
		payload.Groups = append([]snapshot.Group{{Functor: "Pnone"}}, payload.Groups...)
		forged.Payload = &payload
		other := selectiveMediator(t)
		if got := reasonOf(t, other.Restore(&forged)); got != snapshot.ReasonCorrupt {
			t.Fatalf("reason %q, want %q", got, snapshot.ReasonCorrupt)
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

// pairProgram mints one functor from two live construct rules, plus a
// dead sibling that is a construct rule of its group and mints nothing.
const pairProgram = `
program pair

rule FromAlpha {
  head Pitem(N) = item < -> name -> N >
  from A = alpha < -> name -> N >
}

rule FromBeta {
  head Pitem(N) = item < -> name -> N >
  from B = beta < -> name -> N >
}

rule Dead {
  head Pitem(N, N) = item < -> name -> N >
  from A = alpha < -> name -> N >
  where 1 == 2
}
`

// pairStore holds one alpha and one beta tree: one Pitem per live rule.
func pairStore() *tree.Store {
	s := alphaStore("ant")
	for _, e := range betaStore("bee").Entries() {
		s.Put(e.Name, e.Tree)
	}
	return s
}

// A record is a whole group and nothing else. The donor's three-rule
// group restores whole — its dead rule too, which minted none of the
// record's entries and still counts as a rule of it. A payload whose
// hashes verify but which the program could not have produced — an
// identity another functor mints, an identity or a functor listed twice
// (a functor no rule mints: TestRestoreRefusesMismatches) — is refused
// as corrupt and leaves the mediator cold; filed as it stands, the
// first would be served from cache to asks restricted to the record's
// functor.
func TestRestoreRefusesForgedRecords(t *testing.T) {
	prog := yatl.MustParse(pairProgram)
	if sl := engine.ComputeSlice(prog, "Pitem"); !sl.Constructs("Dead") || len(sl.Construct) != 3 {
		t.Fatal("vacuous: Dead must be the third construct rule of Pitem's slice")
	}
	newMediator := func() *Mediator { return New(prog, pairStore(), WithDemandDriven(true)) }

	donor := newMediator()
	want, err := donor.Ask(`X`, "Pitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("donor answers %d items, want one per rule", len(want))
	}
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Payload.Groups) != 1 || len(snap.Payload.Groups[0].Entries) != 2 {
		t.Fatalf("donor snapshot %+v, want the one group with both rules' entries", snap.Payload.Groups)
	}

	whole := newMediator()
	if err := whole.Restore(snap); err != nil {
		t.Fatalf("restore of the donor's snapshot: %v", err)
	}
	got, err := whole.Ask(`X`, "Pitem")
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, got, want, "whole group restored")
	if st := whole.Stats(); st.CachedRules != 3 || st.CacheMisses != 0 {
		t.Fatalf("restored group: %+v, want its 3 rules cached and no miss", st)
	}

	ant, bee := snap.Payload.Groups[0].Entries[0], snap.Payload.Groups[0].Entries[1]
	for _, c := range []struct {
		name   string
		groups []snapshot.Group
	}{
		{"foreign-identity", []snapshot.Group{{Functor: "Pitem", Entries: []snapshot.Entry{ant, {Name: `Pother("ant")`, Tree: ant.Tree}}}}},
		{"duplicate-identity", []snapshot.Group{{Functor: "Pitem", Entries: []snapshot.Entry{ant, bee, ant}}}},
		{"duplicate-functor", []snapshot.Group{{Functor: "Pitem", Entries: []snapshot.Entry{ant}}, {Functor: "Pitem", Entries: []snapshot.Entry{bee}}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			forged := *snap
			payload := *snap.Payload
			payload.Groups = c.groups
			forged.Payload = &payload
			m := newMediator()
			var lerr *snapshot.LoadError
			if err := m.Restore(&forged); !errors.As(err, &lerr) || lerr.Reason != snapshot.ReasonCorrupt {
				t.Fatalf("Restore = %v, want a *snapshot.LoadError (corrupt)", err)
			}
			if st := m.Stats(); st.Restored || st.CachedRules != 0 || st.SliceRuns != 0 {
				t.Fatalf("refused restore left state: %+v", st)
			}
			// Still cold, and correct: the ask runs the slice itself.
			got, err := m.Ask(`X`, "Pitem")
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, got, want, "cold ask after the refusal")
			if st := m.Stats(); st.CacheMisses != 1 || st.SliceRuns != 1 {
				t.Fatalf("cold ask after the refusal: misses=%d slice runs=%d, want 1/1", st.CacheMisses, st.SliceRuns)
			}
		})
	}
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
