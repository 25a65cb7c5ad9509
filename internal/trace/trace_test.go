package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProfileAggregation(t *testing.T) {
	p := NewProfile()
	p.Emit(Event{Kind: KindRunStart, Detail: "demo"})
	p.Emit(Event{Kind: KindRound, Round: 1, Count: 3})
	p.Emit(Event{Kind: KindMatch, Phase: PhaseMatch, Rule: "R", Count: 2, Duration: time.Millisecond})
	p.Emit(Event{Kind: KindMatch, Phase: PhaseMatch, Rule: "R", Count: 0}) // attempt that did not fire
	p.Emit(Event{Kind: KindCall, Phase: PhaseFunctions, Rule: "R", Count: 1, Detail: "city"})
	p.Emit(Event{Kind: KindCall, Phase: PhaseFunctions, Rule: "R", Count: 0, Detail: "city"}) // type filter rejected
	p.Emit(Event{Kind: KindBindingDropped, Phase: PhaseFunctions, Rule: "R", Detail: DropTypeFilter})
	p.Emit(Event{Kind: KindBindingKept, Phase: PhasePredicates, Rule: "R", Count: 1})
	p.Emit(Event{Kind: KindSkolemDefined, Phase: PhaseSkolem, Rule: "R", Count: 1, Detail: "&Pout(&i1)"})
	p.Emit(Event{Kind: KindConstruct, Phase: PhaseConstruct, Rule: "R", Count: 1})
	p.Emit(Event{Kind: KindConstruct, Phase: PhaseConstruct, Rule: "R", Count: 0}) // errored construction
	p.Emit(Event{Kind: KindRunEnd, Duration: 5 * time.Millisecond})

	if p.Program() != "demo" || p.Rounds() != 1 || p.Wall() != 5*time.Millisecond {
		t.Errorf("run header wrong: %q %d %v", p.Program(), p.Rounds(), p.Wall())
	}
	if p.Events() != 12 {
		t.Errorf("events = %d, want 12", p.Events())
	}
	rules := p.Rules()
	if len(rules) != 1 {
		t.Fatalf("rules = %v", rules)
	}
	r := rules[0]
	if r.Fired != 1 {
		t.Errorf("Fired = %d, want 1 (zero-binding attempts must not count)", r.Fired)
	}
	if r.Kept != 1 || r.Skolems != 1 || r.Outputs != 1 {
		t.Errorf("kept/skolems/outputs = %d/%d/%d, want 1/1/1", r.Kept, r.Skolems, r.Outputs)
	}
	if r.Calls["city"] != 2 {
		t.Errorf("Calls = %v, want city=2 (rejected calls still counted)", r.Calls)
	}
	if r.Drops[DropTypeFilter] != 1 {
		t.Errorf("Drops = %v", r.Drops)
	}
	if m := r.Phases[PhaseMatch]; m.Events != 2 || m.Items != 2 || m.Wall != time.Millisecond {
		t.Errorf("match phase = %+v", m)
	}
	if f := r.Phases[PhaseFunctions]; f.Items != 1 {
		t.Errorf("functions items = %d, want 1 (only calls past the filter)", f.Items)
	}
	if c := r.Phases[PhaseConstruct]; c.Events != 2 || c.Items != 1 {
		t.Errorf("construct phase = %+v", c)
	}
}

func TestRulesAreCopies(t *testing.T) {
	p := NewProfile()
	p.Emit(Event{Kind: KindCall, Phase: PhaseFunctions, Rule: "R", Count: 1, Detail: "zip"})
	p.Rules()[0].Calls["zip"] = 99
	if got := p.Rules()[0].Calls["zip"]; got != 1 {
		t.Errorf("mutating the returned copy leaked into the profile: %d", got)
	}
}

func TestRenderTimingToggle(t *testing.T) {
	p := NewProfile()
	p.Emit(Event{Kind: KindRunStart, Detail: "demo"})
	p.Emit(Event{Kind: KindMatch, Phase: PhaseMatch, Rule: "R", Count: 1, Duration: time.Second})
	p.Emit(Event{Kind: KindRunEnd, Duration: 2 * time.Second})
	plain := p.Text(false)
	if strings.Contains(plain, "wall=") || strings.Contains(plain, "total:") {
		t.Errorf("timing leaked into timing-free rendering:\n%s", plain)
	}
	timed := p.Text(true)
	if !strings.Contains(timed, "total: 2s") || !strings.Contains(timed, "wall=1s") {
		t.Errorf("timing missing:\n%s", timed)
	}
}

func TestRenderUnnamed(t *testing.T) {
	if got := NewProfile().Text(false); !strings.HasPrefix(got, "EXPLAIN (unnamed)\n") {
		t.Errorf("empty profile rendering: %q", got)
	}
}

func TestJSONShape(t *testing.T) {
	p := NewProfile()
	p.Emit(Event{Kind: KindRunStart, Detail: "demo"})
	p.Emit(Event{Kind: KindRound, Round: 1, Count: 2})
	p.Emit(Event{Kind: KindMatch, Phase: PhaseMatch, Rule: "R", Count: 1, Duration: time.Millisecond})
	p.Emit(Event{Kind: KindRunEnd, Duration: time.Second})

	plain, err := p.JSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "wall_ns") {
		t.Errorf("wall times in timing-free JSON:\n%s", plain)
	}
	timed, err := p.JSON(true)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Program string `json:"program"`
		Rounds  int    `json:"rounds"`
		WallNS  int64  `json:"wall_ns"`
		Rules   []struct {
			Rule   string `json:"rule"`
			Phases []struct {
				Phase  string `json:"phase"`
				WallNS int64  `json:"wall_ns"`
			} `json:"phases"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(timed, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Program != "demo" || doc.Rounds != 1 || doc.WallNS != time.Second.Nanoseconds() {
		t.Errorf("header: %+v", doc)
	}
	if len(doc.Rules) != 1 || doc.Rules[0].Phases[0].Phase != "match" ||
		doc.Rules[0].Phases[0].WallNS != time.Millisecond.Nanoseconds() {
		t.Errorf("rules: %+v", doc.Rules)
	}
}

func TestRecorderOrder(t *testing.T) {
	var r Recorder
	for i := 1; i <= 3; i++ {
		r.Emit(Event{Kind: KindRound, Round: i})
	}
	events := r.Events()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	for i, e := range events {
		if e.Round != i+1 {
			t.Errorf("event %d out of order: %+v", i, e)
		}
	}
	// The returned slice is a copy.
	events[0].Round = 99
	if r.Events()[0].Round != 1 {
		t.Error("Events() exposed internal storage")
	}
}

// TestProfileConcurrent hammers one profile from many goroutines; with
// -race this pins the Sink concurrency contract.
func TestProfileConcurrent(t *testing.T) {
	p := NewProfile()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.Emit(Event{Kind: KindBindingKept, Phase: PhasePredicates, Rule: "R", Count: 1})
			}
		}()
	}
	wg.Wait()
	if got := p.Rules()[0].Kept; got != workers*perWorker {
		t.Errorf("Kept = %d, want %d", got, workers*perWorker)
	}
}

func TestStringers(t *testing.T) {
	if PhaseConstruct.String() != "construct" || Phase(99).String() != "phase(99)" {
		t.Error("Phase.String wrong")
	}
	if KindSkolemDefined.String() != "skolem-defined" || Kind(99).String() != "kind(99)" {
		t.Error("Kind.String wrong")
	}
}

// TestDocumentIsOneReading: Render and JSON print one Document, read
// under one lock, so a document taken while a run is still emitting
// agrees with itself — here every event is a match of rule R, so the
// total must equal R's match row in every reading.
func TestDocumentIsOneReading(t *testing.T) {
	p := NewProfile()
	const n = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			p.Emit(Event{Kind: KindMatch, Phase: PhaseMatch, Rule: "R", Count: 1})
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		d := p.Document(true)
		matched := 0
		if len(d.Rules) > 0 {
			matched = d.Rules[0].Phases[PhaseMatch].Events
		}
		if d.Events != matched {
			t.Fatalf("document disagrees with itself: events=%d, rule R match events=%d", d.Events, matched)
		}
	}
	if d := p.Document(true); d.Events != n {
		t.Errorf("events = %d, want %d", d.Events, n)
	}
}
