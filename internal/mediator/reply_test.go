package mediator

import (
	"fmt"
	"strings"
	"testing"

	"yat/internal/workload"
	"yat/internal/yatl"
)

// textReply is a render for AskReply: the generation, the form and the
// answers' merge keys, so a reply shows what it was rendered from.
func textReply(keyed bool, renders *int) func(int64, []Answer) []byte {
	return func(generation int64, answers []Answer) []byte {
		*renders++
		return fmt.Appendf(nil, "%d keyed=%v %s", generation, keyed, strings.Join(mergeKeys(answers), "|"))
	}
}

// A reply carries the generation that answered it. The render here
// reloads the mediator while the ask is still rendering — a reply
// rendered after a match, and one rendered from memoized answers: the
// reply says generation 1, the new generation's memo stays empty, and
// the next ask renders afresh under generation 2 and is memoized there.
func TestAskReplyGenerationIsTheAnswering(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	store := workload.BrochureStore(12, 2, 5, 1)
	pat, functors := `view < -> name -> N, -> city -> C, -> zip -> Z >`, []string{"Pview1"}
	ref, err := New(prog, store).Ask(pat, functors...)
	if err != nil || len(ref) == 0 {
		t.Fatalf("full mode: %d answers, %v", len(ref), err)
	}
	want := func(generation int64) string {
		var n int
		return string(textReply(false, &n)(generation, ref))
	}
	for _, answersFirst := range []bool{false, true} {
		m := New(prog, store, WithDemandDriven(true))
		if answersFirst {
			if _, err := m.Ask(pat, functors...); err != nil {
				t.Fatal(err)
			}
		}
		renders := 0
		reloading := func(generation int64, answers []Answer) []byte {
			m.Reload(prog)
			return textReply(false, &renders)(generation, answers)
		}
		body, err := m.AskReply(nil, pat, functors, false, reloading)
		if err != nil || string(body) != want(1) {
			t.Fatalf("answers first %v: reply rendered across a reload:\n got %s (%v)\nwant %s", answersFirst, body, err, want(1))
		}
		if g := m.Generation(); g != 2 {
			t.Fatalf("generation %d after the reload, want 2", g)
		}
		if n := m.state().dgen.cache.view().memo.Len(); n != 0 {
			t.Fatalf("answers first %v: the new generation's memo holds %d entries: the old generation's reply landed in it", answersFirst, n)
		}
		for i, wantRenders := range []int{2, 2} { // render afresh, then a memo hit
			body, err := m.AskReply(nil, pat, functors, false, textReply(false, &renders))
			if err != nil || string(body) != want(2) || renders != wantRenders {
				t.Fatalf("answers first %v, ask %d after the reload: %d renders, want %d\n got %s (%v)\nwant %s",
					answersFirst, i, renders, wantRenders, body, err, want(2))
			}
		}
	}
}

// An ask memo entry keeps the forms its callers asked for, and the
// counters say which asks it served: a reply it holds, or one it renders
// from answers it holds, is a memo hit; an ask wanting a form it can
// neither return nor render — the other reply, or answers behind a
// reply — matches again over the demand cache, a cache hit only.
func TestAskMemoForms(t *testing.T) {
	prog, store := yatl.MustParse(workload.SelectiveProgram(2)), workload.BrochureStore(12, 2, 5, 1)
	m, full := New(prog, store, WithDemandDriven(true)), New(prog, store)
	functors := []string{"Pview1"}
	renders := 0
	type want struct{ hits, memo, misses, renders int64 }
	steps := []struct {
		name string
		pat  string
		form askForm
		want want
	}{
		{"cold plain reply", "X", formPlain, want{0, 0, 1, 1}},
		{"plain reply again", "X", formPlain, want{1, 1, 1, 1}},
		{"keyed reply beside the plain one", "X", formKeyed, want{2, 1, 1, 2}},
		{"keyed reply again", "X", formKeyed, want{3, 2, 1, 2}},
		{"answers behind the replies", "X", formAnswers, want{4, 2, 1, 2}},
		{"answers again", "X", formAnswers, want{5, 3, 1, 2}},
		{"answers of a new key", "Y", formAnswers, want{6, 3, 1, 2}},
		{"plain reply rendered from them", "Y", formPlain, want{7, 4, 1, 3}},
		{"plain reply again", "Y", formPlain, want{8, 5, 1, 3}},
	}
	for _, s := range steps {
		ref, err := full.Ask(s.pat, functors...)
		if err != nil {
			t.Fatal(err)
		}
		if s.form == formAnswers {
			got, err := m.Ask(s.pat, functors...)
			if err != nil || answersKey(t, got) != answersKey(t, ref) {
				t.Fatalf("%s: answers differ from full mode (%v)", s.name, err)
			}
		} else {
			keyed := s.form == formKeyed
			var uncounted int
			got, err := m.AskReply(nil, s.pat, functors, keyed, textReply(keyed, &renders))
			if want := textReply(keyed, &uncounted)(1, ref); err != nil || string(got) != string(want) {
				t.Fatalf("%s:\n got %s (%v)\nwant %s", s.name, got, err, want)
			}
		}
		st := m.Stats()
		if got := (want{st.CacheHits, st.MemoHits, st.CacheMisses, int64(renders)}); got != s.want {
			t.Fatalf("%s: hits/memo/misses/renders = %v, want %v", s.name, got, s.want)
		}
	}
	if n := m.state().dgen.cache.view().memo.Len(); n != 2 {
		t.Errorf("memo holds %d entries, want one per key", n)
	}
	// A mediator with no memo renders every reply.
	before := renders
	for i := 0; i < 2; i++ {
		if _, err := full.AskReply(nil, "X", functors, false, textReply(false, &renders)); err != nil {
			t.Fatal(err)
		}
	}
	if renders != before+2 {
		t.Errorf("full mode: %d renders in 2 asks, want 2", renders-before)
	}
}
