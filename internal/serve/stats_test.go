package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// TestStatsGolden pins GET /stats?timing=0 of a warm two-source server
// byte for byte. The golden was captured before mediator.Stats became
// its own wire document, so the served bytes are provably the ones the
// shadow view types produced. YAT_UPDATE_GOLDEN=1 rewrites it.
func TestStatsGolden(t *testing.T) {
	parts := workload.SplitStore(workload.BrochureStore(6, 2, 5, 11), 2)
	_, ts := newTestServer(t, Config{
		Prog:    yatl.MustParse(versionedSelective("v1", "v1")),
		Sources: []source.Source{source.Static("src1", parts[0]), source.Static("src2", parts[1])},
	})
	for _, functors := range [][]string{{"Pview1"}, {"Pview1"}, {"Pview1"}, nil} {
		if resp, _ := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: functors}); resp.StatusCode != 200 {
			t.Fatalf("ask status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats?timing=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "stats_two_source.golden.json")
	if os.Getenv("YAT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/stats?timing=0 drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// stubLane is an Asker whose Stats are canned: what a lane reports is
// all /stats and /healthz read.
type stubLane struct{ stats mediator.Stats }

func (l stubLane) Ask(string, ...string) ([]mediator.Answer, error) { return nil, nil }
func (l stubLane) AskContext(context.Context, string, ...string) ([]mediator.Answer, error) {
	return nil, nil
}
func (l stubLane) Functors() ([]string, error) { return nil, nil }
func (l stubLane) Stats() mediator.Stats       { return l.stats }

// TestStatsAndHealthzAgree: both endpoints project one fold over the
// lanes, so they report the same entries and fetch error per source —
// whichever lane saw the failure — and a lane reporting no sources at
// all (a remote child whose /stats fetch failed) breaks neither.
func TestStatsAndHealthzAgree(t *testing.T) {
	src := func(name, fetchErr string, entries int) mediator.SourceStatus {
		return mediator.SourceStatus{Stats: source.Stats{Name: name}, FetchErr: fetchErr, Entries: entries}
	}
	healthy := mediator.Stats{Generation: 1, Sources: []mediator.SourceStatus{src("src1", "", 3), src("src2", "", 3)}}
	cases := []struct {
		name       string
		lane1      mediator.Stats
		wantStatus string
		wantErr    string // src2's fetch_err on both endpoints
	}{
		{"lane 1 failing one source",
			mediator.Stats{Generation: 1, Sources: []mediator.SourceStatus{src("src1", "", 3), src("src2", "src2 down", 0)}},
			"degraded", "src2 down"},
		{"lane 1 reporting no sources",
			mediator.Stats{Generation: 1, Err: errors.New("child down")},
			"ok", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Askers: []mediator.Asker{stubLane{healthy}, stubLane{tc.lane1}}})
			var stats wire.StatsResponse
			var health wire.HealthResponse
			getJSON(t, ts.URL+"/stats?timing=0", &stats)
			getJSON(t, ts.URL+"/healthz", &health)
			if health.Status != tc.wantStatus {
				t.Errorf("healthz status %q, want %q", health.Status, tc.wantStatus)
			}
			if len(stats.Mediator.Sources) != 2 || len(health.Sources) != 2 {
				t.Fatalf("sources: /stats %d, /healthz %d, want 2 and 2", len(stats.Mediator.Sources), len(health.Sources))
			}
			for i, h := range health.Sources {
				s := stats.Mediator.Sources[i]
				if s.Name != h.Name || s.FetchErr != h.FetchErr || s.Entries != h.Entries || h.Healthy != (h.FetchErr == "") {
					t.Errorf("source %d: /stats %+v, /healthz %+v", i, s, h)
				}
			}
			if got := health.Sources[1].FetchErr; got != tc.wantErr {
				t.Errorf("src2 fetch_err %q, want %q", got, tc.wantErr)
			}
		})
	}
}
