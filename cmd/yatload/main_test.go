package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"yat/internal/serve"
	"yat/internal/serve/wire"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func TestParseFunctors(t *testing.T) {
	fs, rotate, err := parseFunctors("rotating:3")
	if err != nil || !rotate || len(fs) != 3 || fs[2] != "Pview3" {
		t.Fatalf("rotating:3 -> %v rotate=%v err=%v", fs, rotate, err)
	}
	fs, rotate, err = parseFunctors(" Pa , Pb ")
	if err != nil || rotate || len(fs) != 2 || fs[0] != "Pa" || fs[1] != "Pb" {
		t.Fatalf("list -> %v rotate=%v err=%v", fs, rotate, err)
	}
	if fs, _, err := parseFunctors(""); err != nil || fs != nil {
		t.Fatalf("empty -> %v err=%v", fs, err)
	}
	for _, bad := range []string{"rotating:0", "rotating:x"} {
		if _, _, err := parseFunctors(bad); err == nil {
			t.Errorf("parseFunctors(%q) accepted a bad spec", bad)
		}
	}
}

// drive against an in-process server: a short window must complete
// with zero errors and a coherent report.
func TestDriveAgainstServer(t *testing.T) {
	s, err := serve.New(serve.Config{
		Prog:   yatl.MustParse(workload.SelectiveProgram(4)),
		Inputs: workload.BrochureStore(6, 2, 5, 11),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := drive(driveConfig{
		url:      ts.URL,
		pattern:  defaultPattern,
		functors: []string{"Pview1", "Pview2", "Pview3", "Pview4"},
		rotate:   true,
		workers:  4,
		warmup:   50 * time.Millisecond,
		duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("%d request errors", report.Errors)
	}
	if report.Requests == 0 || report.QPS <= 0 {
		t.Fatalf("empty window: %+v", report)
	}
	if report.Latency.P99Ms < report.Latency.P50Ms || report.Latency.MaxMs < report.Latency.P99Ms {
		t.Fatalf("incoherent latency summary: %+v", report.Latency)
	}
}

// A measured window that completes zero requests still produces a
// valid report — all-zero QPS and percentiles, serializable JSON, no
// NaN or Inf — and run exits 3 so CI gates cannot mistake the vacuous
// window for a passing run. A microscopic -qps cap forces the window
// empty deterministically: the preflight and the first (warmup)
// request succeed, then every worker sleeps past the deadline.
func TestZeroRequestWindow(t *testing.T) {
	s, err := serve.New(serve.Config{
		Prog:   yatl.MustParse(workload.SelectiveProgram(1)),
		Inputs: workload.BrochureStore(2, 1, 2, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	report, err := drive(driveConfig{
		url:        ts.URL,
		pattern:    defaultPattern,
		functors:   []string{"Pview1"},
		workers:    2,
		warmup:     50 * time.Millisecond,
		duration:   100 * time.Millisecond,
		qps:        0.001, // one request per ~33 minutes: none lands in the window
		allowEmpty: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 0 || report.Errors != 0 {
		t.Fatalf("window not empty: %+v", report)
	}
	if report.QPS != 0 || report.Latency != (wire.LatencySummary{}) {
		t.Fatalf("zero window not all-zero: qps=%v latency=%+v", report.QPS, report.Latency)
	}
	if data, err := json.Marshal(report); err != nil {
		// NaN or Inf anywhere in the report would fail here.
		t.Fatalf("zero-window report does not serialize: %v", err)
	} else if strings.Contains(string(data), "null") {
		t.Fatalf("zero-window report carries nulls: %s", data)
	}

	var stderr bytes.Buffer
	code := run([]string{
		"-url", ts.URL, "-functors", "Pview1", "-workers", "2",
		"-warmup", "50ms", "-duration", "100ms", "-qps", "0.001", "-allow-empty",
	}, io.Discard, &stderr)
	if code != 3 {
		t.Fatalf("exit code %d, want 3\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "zero requests") {
		t.Fatalf("stderr does not explain the empty window: %s", stderr.String())
	}
}

// The preflight catches a dead server as one clear error instead of a
// window full of them.
func TestDrivePreflight(t *testing.T) {
	_, err := drive(driveConfig{
		url:      "http://127.0.0.1:1", // nothing listens here
		pattern:  defaultPattern,
		workers:  2,
		duration: 100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dead server not caught by preflight")
	}
}
