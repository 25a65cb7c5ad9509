package mediator

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"yat/internal/delta"
	"yat/internal/engine"
	"yat/internal/snapshot"
	"yat/internal/source"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// refreshProgram is the fixed program of the generated refresh test:
// every way a delta reaches a cached group is in it. Specific and
// General conflict (§4.2): a hot thing matches both and General is
// blocked on it, so a rewrite of its tag moves the entry from one rule
// to the other. Join is the one multi-pattern rule. Feed is a support
// rule of Pleaf — its head reference activates the feeder's part
// subtree, which only Leaf matches — so a feeder entry reaches Pleaf
// without matching any rule of Pleaf's group. Note stands alone.
const refreshProgram = `program refreshgen
rule General {
  head Pitem(X) = item < -> kind -> plain, -> name -> N >
  from X = thing < -> name -> N, -> tag -> T >
}
rule Specific {
  head Pitem(X) = item < -> kind -> hot, -> name -> N >
  from X = thing < -> name -> N, -> tag -> hot >
}
rule Join {
  head Pjoin(K) = pair < -> left -> A, -> right -> B >
  from L = left < -> key -> K, -> val -> A >
  from R = right < -> key -> K, -> val -> B >
}
rule Feed {
  head Pfeed(F) = fed < -> name -> N, -> part -> &Pleaf(T) >
  from F = feeder < -> name -> N, -> sub -> T >
}
rule Leaf {
  head Pleaf(T) = leaf -> V
  from T = part -> V
}
rule Note {
  head Pnote(X) = note -> V
  from X = note -> V
}
`

var (
	refreshFunctors = []string{"Pitem", "Pjoin", "Pfeed", "Pleaf", "Pnote"}
	// refreshFamilies are the entry shapes a store is made of; junk
	// matches no rule. An edit draws from refreshEdits, where the two
	// families with the rarest traps (a tag moving to or from hot, a second
	// feeder minting a cached Pleaf) weigh four times the others.
	refreshFamilies = []string{"thing", "left", "right", "feeder", "part", "note", "junk"}
	refreshEdits    = append([]string{"thing", "thing", "thing", "feeder", "feeder", "feeder"}, refreshFamilies...)
)

// refreshIDs bounds the names of a family, so a sequence inserts,
// rewrites and deletes the same few entries over and over, and
// refreshSteps is how many refreshes one mediator absorbs.
const refreshIDs, refreshSteps = 5, 6

type refreshGen struct{ *rand.Rand }

// entry draws one of the trees entry number id of a family can hold —
// three, two for a feeder. A left and a right of one id share a key;
// two feeders drawing the same value mint the same Pleaf.
func (g refreshGen) entry(family string, id int) (tree.Name, *tree.Node) {
	name, v := tree.PlainName(fmt.Sprintf("%s%d", family, id)), g.Intn(3)
	switch family {
	case "thing":
		return name, tree.MustParse(fmt.Sprintf(`thing < name < "n%d" >, tag < %s > >`, id, []string{"hot", "cold", "mild"}[v]))
	case "left", "right":
		return name, tree.MustParse(fmt.Sprintf(`%s < key < %d >, val < %d > >`, family, id, v))
	case "feeder":
		return name, tree.MustParse(fmt.Sprintf(`feeder < name < "f%d" >, sub < part < %d > > >`, id, v%2))
	}
	return name, tree.MustParse(fmt.Sprintf(`%s < %d >`, family, v)) // part, note, junk
}

func (g refreshGen) store() *tree.Store {
	s := tree.NewStore()
	for _, family := range refreshFamilies {
		for id := 0; id < refreshIDs; id++ {
			if g.Intn(3) == 0 {
				s.Put(g.entry(family, id))
			}
		}
	}
	return s
}

// mutate returns a copy of old after up to three edits: an absent name
// is inserted, a present one deleted or rewritten (never, when
// insertOnly). Edits may cancel; the caller diffs.
func (g refreshGen) mutate(old *tree.Store, insertOnly bool) *tree.Store {
	s := old.Clone()
	for edits, tries := 1+g.Intn(3), 0; edits > 0 && tries < 50; tries++ {
		name, t := g.entry(refreshEdits[g.Intn(len(refreshEdits))], g.Intn(refreshIDs))
		switch prev, had := s.Get(name); {
		case !had:
			s.Put(name, t)
		case insertOnly || prev.Equal(t):
			continue
		case g.Intn(3) == 0:
			s.Delete(name)
		default:
			s.Put(name, t)
		}
		edits--
	}
	return s
}

// touches reports whether the delta holds an entry of the family, old
// side or new.
func touches(d *delta.Delta, family string) bool {
	is := func(n tree.Name) bool { return strings.HasPrefix(n.String(), family) }
	return slices.ContainsFunc(d.Inserted, func(e tree.StoreEntry) bool { return is(e.Name) }) ||
		slices.ContainsFunc(d.Deleted, func(e tree.StoreEntry) bool { return is(e.Name) }) ||
		slices.ContainsFunc(d.Changed, func(c delta.Change) bool { return is(c.Name) })
}

// The differential test of RefreshSource (ROADMAP item 2, slice B, its
// first piece): over seeded sequences of insert / delete / rewrite
// mixes, a demand mediator that absorbs each refresh answers every
// cached functor exactly as a fresh full-mode mediator over the same
// store. Functors are warmed a few at a time, some of them by a cold ask
// between a source change and its refresh (the drift case: that ask
// answers from the pin and must not move the baseline the refresh diffs
// against), so the cache is partial through most of a sequence; a
// functor not yet cached has nothing a refresh could leave stale, is
// compared when it is first asked, and all of them are after the last
// refresh. What it guards above all is the one dependency oracle:
// engine.AffectedRules over both sides of the delta, mapped to groups
// by demandCache.dependents.
//
// YAT_REFRESH_SEED=n runs one seed; YAT_SOAK=1 runs 3000.
func TestRefreshMatchesRerun(t *testing.T) {
	prog := yatl.MustParse(refreshProgram)
	if h := engine.BuildHierarchy(prog, nil); !slices.Contains(h.Blocks["Specific"], "General") ||
		!engine.AnalyzeProgram(prog).SliceFor("Pleaf").Includes("Feed") {
		t.Fatal("vacuous: Specific must block General, and Feed must support Pleaf")
	}
	first, seeds := int64(1), int64(300)
	if os.Getenv("YAT_SOAK") != "" {
		seeds = 3000
	}
	if s := os.Getenv("YAT_REFRESH_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	made := map[string]int{}
	for seed := first; seed < first+seeds; seed++ {
		if diff := checkRefreshSeed(t, prog, seed, made, false); diff != "" {
			t.Fatalf("seed %d: %s\nrerun with YAT_REFRESH_SEED=%d go test ./internal/mediator -run %s",
				seed, diff, seed, t.Name())
		}
	}
	if seeds == 1 {
		return
	}
	// Not vacuous: refreshes were re-run and were found to reach nothing,
	// and the traps the oracle exists for were all set.
	for trap, atLeast := range map[string]int{
		"re-run of the affected slice":                          50,
		"no cached group affected":                              50,
		"an insert into a cached group":                         50,
		"a deletion or rewrite re-run":                          50,
		"a join re-run":                                         50,
		"cold ask between a source change and its refresh":      50,
		"a cached group reached through its support rule alone": 50,
		"a rewrite moves an entry between Specific and General": 50,
	} {
		if made[trap] < atLeast {
			t.Errorf("%q happened %d times in %d seeds, want ≥ %d", trap, made[trap], seeds, atLeast)
		}
	}
	t.Logf("%d seeds: %v", seeds, made)
}

// TestRefreshMutationDetected proves the oracle can fail: a refresh
// whose re-run commits only the first of the groups it recomputed is
// caught.
func TestRefreshMutationDetected(t *testing.T) {
	prog := yatl.MustParse(refreshProgram)
	caught := 0
	for seed := int64(1); seed <= 300; seed++ {
		if checkRefreshSeed(t, prog, seed, map[string]int{}, true) != "" {
			caught++
		}
	}
	if caught < 150 {
		t.Errorf("committing one group of a re-run was caught on %d of 300 seeds, want ≥ 150", caught)
	}
	t.Logf("committing one group of a re-run was caught on %d of 300 seeds", caught)
}

// checkRefreshSeed runs one seeded sequence of asks and refreshes,
// counting the traps it sets in made, and returns its first divergence
// from a fresh full-mode mediator with the edit history behind it, ""
// when there is none. commitsOneGroup arms the mutant.
func checkRefreshSeed(t *testing.T, prog *yatl.Program, seed int64, made map[string]int, commitsOneGroup bool) string {
	t.Helper()
	ctx := context.Background()
	g := refreshGen{rand.New(rand.NewSource(seed))}
	pinned := g.store() // what the generation must be answering from
	fault := source.NewFault("src", pinned)
	m := New(prog, nil, WithDemandDriven(true), WithSources(fault))
	m.refreshCommitsOneGroup = commitsOneGroup
	cached := map[string]bool{}
	var history []string
	check := func(what, functor string) string {
		t.Helper()
		cached[functor] = true
		want, err := New(prog, pinned).Ask(`X`, functor)
		if err != nil {
			t.Fatalf("seed %d: full mode: %v", seed, err)
		}
		got, err := m.Ask(`X`, functor)
		if err != nil {
			t.Fatalf("seed %d: demand mode: %v", seed, err)
		}
		if g, w := mergeKeys(got), mergeKeys(want); !slices.Equal(g, w) {
			return fmt.Sprintf("%s: %s differs from a fresh full-mode mediator over the same store\n got %q\nwant %q\n%s\nstore:\n%s",
				what, functor, g, w, strings.Join(history, "\n"), tree.FormatStore(pinned))
		}
		return ""
	}
	if diff := check("warm-up", refreshFunctors[g.Intn(len(refreshFunctors))]); diff != "" {
		return diff
	}
	for _, f := range refreshFunctors {
		if g.Intn(3) == 0 {
			if diff := check("warm-up", f); diff != "" {
				return diff
			}
		}
	}
	for step := 1; step <= refreshSteps; step++ {
		next := g.mutate(pinned, g.Intn(2) == 0)
		fault.SetStore(next)
		d := delta.Diff(pinned, next)
		what := fmt.Sprintf("step %d (+%d -%d ~%d)", step, len(d.Inserted), len(d.Deleted), len(d.Changed))
		var cold []string
		for _, f := range refreshFunctors {
			if !cached[f] {
				cold = append(cold, f)
			}
		}
		if len(cold) > 0 && g.Intn(2) == 0 {
			made["cold ask between a source change and its refresh"]++
			f := cold[g.Intn(len(cold))]
			history = append(history, what+": cold ask of "+f)
			if diff := check(what+", before the refresh", f); diff != "" {
				return diff
			}
		}
		if cached["Pleaf"] && touches(d, "feeder") && !touches(d, "part") {
			made["a cached group reached through its support rule alone"]++
		}
		if cached["Pitem"] && slices.ContainsFunc(d.Changed, func(c delta.Change) bool {
			return strings.Contains(c.Old.String(), "hot") != strings.Contains(c.New.String(), "hot")
		}) {
			made["a rewrite moves an entry between Specific and General"]++
		}

		before := m.Stats()
		if err := m.RefreshSource(ctx, "src"); err != nil {
			t.Fatalf("seed %d, %s: refresh: %v", seed, what, err)
		}
		pinned = next
		switch after := m.Stats(); {
		case after.DeltaFallbacks > before.DeltaFallbacks:
			t.Fatalf("seed %d, %s: the refresh of a healthy source fell back: %+v", seed, what, after)
		case after.SliceRuns > before.SliceRuns:
			made["re-run of the affected slice"]++
			what += " re-run"
			if len(d.Deleted)+len(d.Changed) == 0 {
				made["an insert into a cached group"]++
			} else {
				made["a deletion or rewrite re-run"]++
			}
			if cached["Pjoin"] && (touches(d, "left") || touches(d, "right")) {
				made["a join re-run"]++
			}
		case !d.Empty():
			made["no cached group affected"]++
			what += " nothing affected"
		}
		history = append(history, what)
		for _, f := range refreshFunctors {
			if cached[f] || step == refreshSteps {
				if diff := check(what, f); diff != "" {
					return diff
				}
			}
		}
	}
	return ""
}

// restoreProgram is refreshProgram plus a group whose two rules mint the
// same identity: a note and a junk entry holding one value both define
// Pboth of it, with one tree. The group holds that identity once.
const restoreProgram = refreshProgram + `
rule BothNote {
  head Pboth(V) = both -> V
  from X = note -> V
}
rule BothJunk {
  head Pboth(V) = both -> V
  from X = junk -> V
}
`

var (
	restoreFunctors = append([]string{"Pboth"}, refreshFunctors...)
	// restorePatterns are what a generated ask matches with: everything,
	// one group's shape with variables, and point lookups the restored
	// groups' rebuilt indexes serve.
	restorePatterns = []string{`X`, `item < -> kind -> K, -> name -> N >`, `both -> V`, `leaf -> 1`,
		`pair < -> left -> 0, -> right -> B >`}
)

const restoreSteps = 5

// The differential test of Snapshot and Restore (ROADMAP item 2, slice
// B, "snapshot → restore ≡ donor"): after a seeded mix of cold asks and
// refreshes, the donor's snapshot — through Encode and Decode — warms a
// fresh mediator that answers every generated ask exactly as the donor,
// without running a slice, and snapshots again to the donor's bytes. A
// group is its entries: whichever tier built a bucket, and however many
// rules minted an identity, the file holds it once and the restored
// group is the donor's.
//
// YAT_RESTORE_SEED=n runs one seed; YAT_SOAK=1 runs 2000.
func TestRestoreMatchesDonor(t *testing.T) {
	prog := yatl.MustParse(restoreProgram)
	first, seeds := int64(1), int64(200)
	if os.Getenv("YAT_SOAK") != "" {
		seeds = 2000
	}
	if s := os.Getenv("YAT_RESTORE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		first, seeds = n, 1
	}
	ctx := context.Background()
	made := map[string]int{}
	for seed := first; seed < first+seeds; seed++ {
		g := refreshGen{rand.New(rand.NewSource(seed))}
		pinned := g.store()
		fault := source.NewFault("src", pinned)
		donor := New(prog, nil, WithDemandDriven(true), WithSources(fault))
		var history []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\n%s\nstore:\n%s\nrerun with YAT_RESTORE_SEED=%d go test ./internal/mediator -run %s",
				seed, fmt.Sprintf(format, args...), strings.Join(history, "\n"), tree.FormatStore(pinned), seed, t.Name())
		}

		cached := map[string]bool{}
		warm := func() {
			f := restoreFunctors[g.Intn(len(restoreFunctors))]
			history = append(history, "ask of "+f)
			if _, err := donor.Ask(`X`, f); err != nil {
				fail("donor ask: %v", err)
			}
			cached[f] = true
		}
		warm()
		for step := 0; step < restoreSteps; step++ {
			if g.Intn(2) == 0 {
				warm()
				continue
			}
			pinned = g.mutate(pinned, g.Intn(2) == 0)
			fault.SetStore(pinned)
			history = append(history, "refresh")
			if err := donor.RefreshSource(ctx, "src"); err != nil {
				fail("refresh: %v", err)
			}
		}
		if st := donor.Stats(); st.DeltaRuns+st.DeltaFallbacks > 0 {
			made["a refresh rewrote the cache before the snapshot"]++
		}

		// The generated asks: everything of each cached group, and a few
		// patterns over random sets of them. Only cached functors are
		// named, so no ask has a slice to run on either side.
		type genAsk struct {
			pattern  string
			functors []string
		}
		var asks []genAsk
		var held []string
		for _, f := range restoreFunctors {
			if cached[f] {
				held = append(held, f)
				asks = append(asks, genAsk{`X`, []string{f}})
			}
		}
		for i := 0; i < 3; i++ {
			a := genAsk{pattern: restorePatterns[g.Intn(len(restorePatterns))]}
			for _, f := range held {
				if g.Intn(2) == 0 {
					a.functors = append(a.functors, f)
				}
			}
			if len(a.functors) > 0 {
				asks = append(asks, a)
			}
		}
		answers := func(m *Mediator) []string {
			t.Helper()
			var out []string
			for _, a := range asks {
				as, err := m.Ask(a.pattern, a.functors...)
				if err != nil {
					fail("ask %s of %v: %v", a.pattern, a.functors, err)
				}
				out = append(out, fmt.Sprintf("%s of %v: %d", a.pattern, a.functors, len(as)))
				out = append(out, render(as)...)
			}
			return out
		}
		restore := func(data []byte) *Mediator {
			t.Helper()
			snap, err := snapshot.Decode(data)
			if err != nil {
				fail("Decode: %v", err)
			}
			m := New(prog, nil, WithDemandDriven(true), WithSources(source.Static("src", pinned)))
			if err := m.Restore(snap); err != nil {
				fail("Restore: %v", err)
			}
			return m
		}
		encode := func(m *Mediator) (*snapshot.Snapshot, []byte) {
			t.Helper()
			snap, err := m.Snapshot()
			if err != nil {
				fail("Snapshot: %v", err)
			}
			data, err := snap.Encode()
			if err != nil {
				fail("Encode: %v", err)
			}
			return snap, data
		}

		want := answers(donor)
		snap, file := encode(donor)
		restored := restore(file)
		if got := answers(restored); !slices.Equal(got, want) {
			fail("the restored mediator answers\n got %q\nwant %q", got, want)
		}
		if st := restored.Stats(); !st.Restored || st.CacheMisses != 0 || st.SliceRuns != snap.Payload.Runs {
			fail("restored asks: %+v, want no miss and the file's %d slice runs", st, snap.Payload.Runs)
		}
		if _, again := encode(restored); !bytes.Equal(again, file) {
			fail("re-snapshot of the restored generation\n got: %s\nwant: %s", again, file)
		}
		new(cacheWatch).look(t, donor)
		new(cacheWatch).look(t, restored)

		// What the file holds: one record per cached group, each identity
		// once — also the one both rules of Pboth mint.
		if len(snap.Payload.Groups) != len(held) {
			fail("snapshot holds %d groups, the donor cached %v", len(snap.Payload.Groups), held)
		}
		if len(held) > 1 {
			made["several groups restored"]++
		}
		minted := map[string]map[string]bool{"note": {}, "junk": {}}
		for _, e := range pinned.Entries() {
			family := strings.TrimRight(e.Name.String(), "0123456789")
			if minted[family] != nil {
				minted[family][e.Tree.Children[0].Label.Display()] = true
			}
		}
		for _, rec := range snap.Payload.Groups {
			if len(rec.Entries) == 0 {
				made["a cached and empty group restored"]++
			}
			listed := map[string]int{}
			for _, e := range rec.Entries {
				listed[e.Name]++
			}
			for v := range minted["note"] {
				if name := "Pboth(" + v + ")"; rec.Functor == "Pboth" && minted["junk"][v] {
					made["an identity two rules of a group mint"]++
					if listed[name] != 1 {
						fail("the file lists %s %d times, want once", name, listed[name])
					}
				}
			}
		}

		// The oracle can fail: a file with one entry dropped restores (it
		// is a payload the program could have produced) and is told apart.
		if i := g.Intn(len(snap.Payload.Groups)); len(snap.Payload.Groups[i].Entries) > 0 {
			forged, payload := *snap, *snap.Payload
			payload.Groups = slices.Clone(payload.Groups)
			drop := g.Intn(len(payload.Groups[i].Entries))
			payload.Groups[i].Entries = slices.Delete(slices.Clone(payload.Groups[i].Entries), drop, drop+1)
			forged.Payload = &payload
			data, err := forged.Encode()
			if err != nil {
				fail("Encode: %v", err)
			}
			if slices.Equal(answers(restore(data)), want) {
				fail("the oracle cannot fail: dropping entry %d of %s changes no answer", drop, payload.Groups[i].Functor)
			}
			made["a dropped entry told apart"]++
		}
	}
	if seeds == 1 {
		return
	}
	for what, atLeast := range map[string]int{
		"several groups restored":                         100,
		"a refresh rewrote the cache before the snapshot": 100,
		"a cached and empty group restored":               20,
		"an identity two rules of a group mint":           20,
		"a dropped entry told apart":                      100,
	} {
		if made[what] < atLeast {
			t.Errorf("%q happened %d times in %d seeds, want ≥ %d", what, made[what], seeds, atLeast)
		}
	}
	t.Logf("%d seeds: %v", seeds, made)
}
