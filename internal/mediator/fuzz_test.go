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
		g.Groups = append([]snapshot.Group(nil), g.Groups...)
		edit(&g)
		data, err := json.Marshal(&g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	item := snap.Payload.Groups[0]
	seed(func(*snapshot.Generation) {})
	seed(func(g *snapshot.Generation) { g.Groups[0].Entries = item.Entries[1:] }) // one rule's entry gone: served as it stands
	seed(func(g *snapshot.Generation) { g.Groups = append(g.Groups, item) })      // the group twice
	seed(func(g *snapshot.Generation) { g.Degraded = []string{"src1"} })
	seed(func(g *snapshot.Generation) {
		g.Groups[0].Entries = []snapshot.Entry{item.Entries[1], item.Entries[0]}
	})
	seed(func(g *snapshot.Generation) {
		g.Groups[0].Entries = []snapshot.Entry{{Name: item.Entries[0].Name, Tree: "item <"}}
	})
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"groups":[{"functor":"Pitem","entries":[{"name":"Pitem(","tree":""}]}]}`))
	// A format-2 payload: per-rule records and no "groups" member, so
	// nothing in it is read.
	f.Add([]byte(`{"rules":[{"rule":"FromAlpha","cached":true,"entries":[{"name":"Pitem(\"ant\")","tree":"item < name < \"ant\" > >"}]},` +
		`{"rule":"FromBeta","cached":true,"entries":[{"name":"Pitem(\"bee\")","tree":"item < name < \"bee\" > >"}]}],` +
		`"stats":{"activations":2,"bindings":2,"outputs":2,"rounds":1},"runs":1}`))
	// What the program could not have produced: an identity another
	// functor mints, a functor no rule mints, an identity listed twice.
	seed(func(g *snapshot.Generation) {
		g.Groups[0].Entries = []snapshot.Entry{item.Entries[0], {Name: `Pother("ant")`, Tree: item.Entries[0].Tree}}
	})
	seed(func(g *snapshot.Generation) { g.Groups = append(g.Groups, snapshot.Group{Functor: "Pother"}) })
	seed(func(g *snapshot.Generation) {
		g.Groups[0].Entries = []snapshot.Entry{item.Entries[0], item.Entries[1], item.Entries[0]}
	})

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
