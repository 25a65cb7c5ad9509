package mediator

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/source"
)

// TestAggregateMergesSourcesByName: Aggregate is the one fold over
// lanes, so a source's health must not depend on which lane comes
// first — any lane's fetch error fails it, the chain counters are taken
// once, and a snapshot carrying fewer (or no) sources is no obstacle.
func TestAggregateMergesSourcesByName(t *testing.T) {
	src := func(name string, attempts int64, fetchErr string, entries int) SourceStatus {
		return SourceStatus{Stats: source.Stats{Name: name, Attempts: attempts}, FetchErr: fetchErr, Entries: entries}
	}
	cases := []struct {
		name string
		in   []Stats
		want []SourceStatus
	}{
		{"single snapshot unchanged",
			[]Stats{{Sources: []SourceStatus{src("a", 2, "boom", 1)}}},
			[]SourceStatus{src("a", 2, "boom", 1)}},
		{"later lane's failure and larger merge show",
			[]Stats{
				{Sources: []SourceStatus{src("a", 4, "", 0), src("b", 4, "", 3)}},
				{Sources: []SourceStatus{src("a", 4, "", 5), src("b", 4, "b down", 0)}},
			},
			[]SourceStatus{src("a", 4, "", 5), src("b", 4, "b down", 3)}},
		{"first non-empty fetch error wins",
			[]Stats{
				{Sources: []SourceStatus{src("a", 1, "first", 0)}},
				{Sources: []SourceStatus{src("a", 1, "second", 0)}},
			},
			[]SourceStatus{src("a", 1, "first", 0)}},
		{"lanes with fewer or no sources",
			[]Stats{
				{Err: errors.New("child down")},
				{Sources: []SourceStatus{src("a", 1, "", 2)}},
				{Sources: []SourceStatus{src("b", 1, "", 2), src("a", 1, "a down", 7)}},
			},
			[]SourceStatus{src("a", 1, "a down", 7), src("b", 1, "", 2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Aggregate(tc.in...).Sources; !reflect.DeepEqual(got, tc.want) {
				t.Errorf("sources\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestStatsRoundTrip: Stats is its own wire form, so marshaling and
// decoding it returns the same value — Err as an error carrying the
// same message, the wall-clock fields only when the document is timed.
func TestStatsRoundTrip(t *testing.T) {
	full := Stats{
		Generation: 3, Materialized: true, Err: errors.New("slice run failed"), Demand: true, Restored: true,
		Asks: 9, CacheHits: 6, CacheMisses: 2, MemoHits: 4, AskTime: source.Millis(1500 * time.Microsecond),
		CachedRules: 4, SliceRuns: 2, DeltaRuns: 1, DeltaFallbacks: 1, PatchedRules: 3,
		Run: engine.Stats{Activations: 18, Bindings: 33, Outputs: 15, Rounds: 3},
		Sources: []SourceStatus{{
			Stats: source.Stats{Name: "src1", Attempts: 5, Failures: 2, Retries: 2, Timeouts: 1,
				BreakerState: "half-open", BreakerOpens: 1, Rejections: 4, LastErr: "timeout"},
			FetchErr: "src1 down", Entries: 7,
		}},
		Shards: []ShardStatus{{Name: "shard0", Remote: true, Functors: 2, Asks: 8, Failures: 1,
			Healthy: true, Breaker: "closed", LastErr: "reset"}},
	}
	for name, want := range map[string]Stats{"timed": full, "untimed": full.Untimed(), "zero": {}} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			var got Stats
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("%v\n%s", err, data)
			}
			if (got.Err == nil) != (want.Err == nil) || got.Err != nil && got.Err.Error() != want.Err.Error() {
				t.Errorf("Err %v, want %v", got.Err, want.Err)
			}
			got.Err, want.Err = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip\n got %+v\nwant %+v\n via %s", got, want, data)
			}
		})
	}
	if u := full.Untimed(); u.AskTime != 0 || full.AskTime == 0 {
		t.Errorf("Untimed: AskTime %v, receiver's %v", u.AskTime, full.AskTime)
	}
	// A child of another release sends members this one does not know;
	// the decoder is not strict, so its document still aggregates.
	var old Stats
	if err := json.Unmarshal([]byte(`{"generation":2,"sources":[{"name":"s","attempts":1,"failures":0,`+
		`"retries":0,"timeouts":0,"gone_count":3,"gone_age_ms":250,"entries":7}]}`), &old); err != nil ||
		old.Generation != 2 || len(old.Sources) != 1 || old.Sources[0].Entries != 7 {
		t.Errorf("older child's document: %+v, %v", old, err)
	}
	// Key order is the struct's field order, with "err" in its
	// historical place.
	data, _ := json.Marshal(Stats{Generation: 1, Err: errors.New("x"), Demand: true})
	const want = `{"generation":1,"materialized":false,"err":"x","demand":true,"asks":0,"cache_hits":0,` +
		`"cache_misses":0,"memo_hits":0,"memo_entries":0,"memo_bytes":0,"memo_replays":0,"leased_replays":0,"not_modified":0,"cached_rules":0,"slice_runs":0,"delta_runs":0,"delta_fallbacks":0,` +
		`"patched_rules":0,"run":{"activations":0,"bindings":0,"outputs":0,"rounds":0}}`
	if string(data) != want {
		t.Errorf("wire bytes drifted:\n got %s\nwant %s", data, want)
	}
}
