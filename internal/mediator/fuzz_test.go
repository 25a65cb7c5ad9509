package mediator

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"yat/internal/snapshot"
	"yat/internal/yatl"
)

// FuzzRestore feeds Restore a snapshot whose envelope is in order — this
// format, this program's and these options' hashes — around a fuzzed
// payload, decoded as snapshot.Decode decodes one. Whatever the payload
// says, the restore either succeeds and then answers without error, or
// is refused with a typed *snapshot.LoadError, leaving the mediator
// answering exactly as a cold one. It never panics.
func FuzzRestore(f *testing.F) {
	prog := yatl.MustParse(pairProgram)
	newMediator := func() *Mediator { return New(prog, pairStore(), WithDemandDriven(true)) }

	donor := newMediator()
	as, err := donor.Ask(`X`, "Pitem")
	if err != nil || len(as) != 2 {
		f.Fatalf("donor ask: %d answers, %v", len(as), err)
	}
	cold := render(as)
	snap, err := donor.Snapshot()
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: the donor's own payload and the forgeries of the unit tests.
	seed := func(edit func(*snapshot.Generation)) {
		g := *snap.Payload
		g.Rules = append([]snapshot.RuleCache(nil), g.Rules...)
		edit(&g)
		data, err := json.Marshal(&g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(func(*snapshot.Generation) {})
	seed(func(g *snapshot.Generation) { g.Rules = g.Rules[1:] }) // FromBeta without its sibling
	seed(func(g *snapshot.Generation) {
		g.Rules = append(g.Rules, snapshot.RuleCache{Rule: "NoSuchRule", Cached: true})
	})
	seed(func(g *snapshot.Generation) { g.Degraded = []string{"src1"} })
	seed(func(g *snapshot.Generation) {
		g.Rules[0].Entries, g.Rules[1].Entries = g.Rules[1].Entries, g.Rules[0].Entries
	})
	seed(func(g *snapshot.Generation) {
		g.Rules[0].Entries = []snapshot.Entry{{Name: g.Rules[0].Entries[0].Name, Tree: "item <"}}
	})
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"rules":[{"rule":"FromAlpha","cached":true,"entries":[{"name":"Pitem(","tree":""}]}]}`))
	// The layout format 2 had while rules carried source records, which
	// this build reads and no longer writes — a donor's Snapshot cannot
	// seed it.
	f.Add([]byte(`{"rules":[{"rule":"Dead","cached":false,"sources":["a1"]},` +
		`{"rule":"FromAlpha","cached":true,"entries":[{"name":"Pitem(\"ant\")","tree":"item < name < \"ant\" > >"}],"sources":["a1"]},` +
		`{"rule":"FromBeta","cached":true,"entries":[{"name":"Pitem(\"bee\")","tree":"item < name < \"bee\" > >"}],"sources":["b1"]}],` +
		`"stats":{"activations":2,"bindings":2,"outputs":2,"rounds":1},"runs":1}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		forged := *snap
		forged.Payload = &snapshot.Generation{}
		if json.Unmarshal(payload, forged.Payload) != nil {
			return // not a payload: Decode refuses it (FuzzDecode)
		}
		m := newMediator()
		err := m.Restore(&forged)
		st := m.Stats()
		if err != nil {
			var lerr *snapshot.LoadError
			if !errors.As(err, &lerr) || lerr.Reason != snapshot.ReasonCorrupt {
				t.Fatalf("Restore refused with %T %v, want a *LoadError (corrupt)", err, err)
			}
			if st.Restored || st.CachedRules != 0 || st.SliceRuns != 0 {
				t.Fatalf("refused restore left state: %+v", st)
			}
		} else if !st.Restored {
			t.Fatalf("accepted restore not marked restored: %+v", st)
		}
		as, askErr := m.Ask(`X`, "Pitem")
		if askErr != nil {
			t.Fatalf("ask after Restore (%v): %v", err, askErr)
		}
		// An accepted forgery answers what it says; a refused one must
		// leave the cold mediator's answer.
		if got := render(as); err != nil && !slices.Equal(got, cold) {
			t.Fatalf("ask after a refused restore:\n got %q\nwant %q", got, cold)
		}
	})
}
