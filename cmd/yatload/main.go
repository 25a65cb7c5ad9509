// Yatload drives a running yatserve with sustained concurrent asks
// and reports throughput and latency percentiles: the by-hand load
// driver, also used by CI's smoke jobs. The numbers CI compares come
// from the repo benchmark (go run ./bench).
//
// Usage:
//
//	yatload -url http://host:port [flags]
//
//	-url       base URL of the yatserve instance (required)
//	-pattern   ask pattern (default matches the selective:K workload's
//	           view shape)
//	-functors  comma-separated Skolem functors restricting the ask;
//	           rotating:K rotates each request through Pview1..PviewK —
//	           the selective-ask workload where demand-driven slicing
//	           pays
//	-workers   concurrent request loops (default 8)
//	-warmup    window discarded before measurement starts (default 1s)
//	-duration  measured window (default 5s)
//	-qps       target request rate cap, spread across workers
//	           (0 = as fast as the server answers)
//	-allow-empty  tolerate empty answer sets (a federated server
//	           degraded to partial results still answers 200 with
//	           whatever its healthy shards produced)
//	-out       write the JSON report to a file instead of stdout
//
// The report is the wire.LoadReport schema: requests, errors, QPS,
// p50/p95/p99/mean/max latency in milliseconds. A measured window
// that completed no requests at all (e.g. the warmup swallowed the
// whole run, or a -qps cap slower than the window) still emits a
// valid report — zero QPS and zero percentiles, never NaN or Inf.
//
// Exit status: 0 on a measured window with no failures, 1 when any
// request failed, 2 on usage errors, 3 when the window completed
// zero requests (the report is vacuous — scripts gating on exit 0
// must not mistake an empty window for a passing run).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"yat/internal/serve/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const defaultPattern = `view < -> name -> N, -> city -> C, -> zip -> Z >`

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yatload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		urlFlag      = fs.String("url", "", "base URL of the yatserve instance")
		patternFlag  = fs.String("pattern", defaultPattern, "ask pattern")
		funcFlag     = fs.String("functors", "", "comma-separated functors, or rotating:K")
		workersFlag  = fs.Int("workers", 8, "concurrent request loops")
		warmupFlag   = fs.Duration("warmup", time.Second, "window discarded before measurement")
		durationFlag = fs.Duration("duration", 5*time.Second, "measured window")
		qpsFlag      = fs.Float64("qps", 0, "target request rate cap (0 = unbounded)")
		emptyFlag    = fs.Bool("allow-empty", false, "tolerate empty answer sets (degraded federations)")
		outFlag      = fs.String("out", "", "write the JSON report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *urlFlag == "" {
		fmt.Fprintln(stderr, "yatload: -url is required")
		fs.Usage()
		return 2
	}
	if *workersFlag <= 0 || *durationFlag <= 0 {
		fmt.Fprintln(stderr, "yatload: -workers and -duration must be positive")
		return 2
	}

	functors, rotate, err := parseFunctors(*funcFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatload:", err)
		return 2
	}

	report, err := drive(driveConfig{
		url:        strings.TrimRight(*urlFlag, "/"),
		pattern:    *patternFlag,
		functors:   functors,
		rotate:     rotate,
		workers:    *workersFlag,
		warmup:     *warmupFlag,
		duration:   *durationFlag,
		qps:        *qpsFlag,
		allowEmpty: *emptyFlag,
	})
	if err != nil {
		fmt.Fprintln(stderr, "yatload:", err)
		return 1
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "yatload:", err)
		return 1
	}
	if *outFlag != "" {
		if err := os.WriteFile(*outFlag, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "yatload:", err)
			return 1
		}
		fmt.Fprintf(stderr, "yatload: report written to %s\n", *outFlag)
	} else {
		fmt.Fprintf(stdout, "%s\n", data)
	}
	fmt.Fprintf(stderr, "yatload: %d requests, %d errors, %.0f qps, p50=%.2fms p95=%.2fms p99=%.2fms\n",
		report.Requests, report.Errors, report.QPS,
		report.Latency.P50Ms, report.Latency.P95Ms, report.Latency.P99Ms)
	if report.Errors > 0 {
		return 1
	}
	if report.Requests == 0 {
		fmt.Fprintln(stderr, "yatload: measured window completed zero requests (report is vacuous)")
		return 3
	}
	return 0
}

// parseFunctors reads the -functors spec: a comma-separated list, or
// rotating:K meaning each request asks one of Pview1..PviewK in turn.
func parseFunctors(spec string) (functors []string, rotate bool, err error) {
	if k, ok := strings.CutPrefix(spec, "rotating:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n <= 0 {
			return nil, false, fmt.Errorf("bad spec %q: want rotating:K with K > 0", spec)
		}
		for i := 1; i <= n; i++ {
			functors = append(functors, fmt.Sprintf("Pview%d", i))
		}
		return functors, true, nil
	}
	for _, f := range strings.Split(spec, ",") {
		if f = strings.TrimSpace(f); f != "" {
			functors = append(functors, f)
		}
	}
	return functors, false, nil
}

type driveConfig struct {
	url        string
	pattern    string
	functors   []string
	rotate     bool
	workers    int
	warmup     time.Duration
	duration   time.Duration
	qps        float64
	allowEmpty bool
}

// drive runs the load: workers loop POST /ask until the deadline,
// discarding results until the warmup elapses. Latencies and errors
// from the measured window are folded into the report.
func drive(cfg driveConfig) (*wire.LoadReport, error) {
	// One pre-marshaled body per distinct request shape.
	bodies := make([][]byte, 1)
	if cfg.rotate {
		bodies = make([][]byte, len(cfg.functors))
		for i, f := range cfg.functors {
			bodies[i] = askBody(cfg.pattern, []string{f})
		}
	} else {
		bodies[0] = askBody(cfg.pattern, cfg.functors)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.workers * 2,
		MaxIdleConnsPerHost: cfg.workers * 2,
	}}

	// Smoke one request before unleashing the workers so a dead server
	// is one clear error, not workers*duration of them.
	if _, err := ask(client, cfg.url, bodies[0], cfg.allowEmpty); err != nil {
		return nil, fmt.Errorf("preflight request: %w", err)
	}

	var perWorkerGap time.Duration
	if cfg.qps > 0 {
		perWorkerGap = time.Duration(float64(cfg.workers) / cfg.qps * float64(time.Second))
	}

	type workerResult struct {
		lat  []time.Duration
		errs int64
	}
	results := make([]workerResult, cfg.workers)
	measureFrom := time.Now().Add(cfg.warmup)
	deadline := measureFrom.Add(cfg.duration)

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for i := w; ; i++ {
				start := time.Now()
				if start.After(deadline) {
					return
				}
				_, err := ask(client, cfg.url, bodies[i%len(bodies)], cfg.allowEmpty)
				if start.After(measureFrom) {
					if err != nil {
						res.errs++
					} else {
						res.lat = append(res.lat, time.Since(start))
					}
				}
				if perWorkerGap > 0 {
					if rest := perWorkerGap - time.Since(start); rest > 0 {
						// Never sleep past the deadline: a -qps cap slower than
						// the window must end the run on time (with an empty
						// report), not stall it for the rest of the gap.
						if until := time.Until(deadline); rest > until {
							rest = until + time.Millisecond
						}
						time.Sleep(rest)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var lat []time.Duration
	var errs int64
	for _, r := range results {
		lat = append(lat, r.lat...)
		errs += r.errs
	}
	report := &wire.LoadReport{
		URL:             cfg.url,
		Pattern:         cfg.pattern,
		Functors:        cfg.functors,
		Workers:         cfg.workers,
		WarmupSeconds:   cfg.warmup.Seconds(),
		DurationSeconds: cfg.duration.Seconds(),
		Requests:        int64(len(lat)) + errs,
		Errors:          errs,
		QPS:             float64(len(lat)) / cfg.duration.Seconds(),
		Latency:         wire.Summarize(lat),
	}
	return report, nil
}

func askBody(pattern string, functors []string) []byte {
	return wire.AppendAskRequest(nil, wire.AskRequest{Pattern: pattern, Functors: functors})
}

// ask performs one POST /ask, draining and closing the body so the
// connection returns to the pool. Any non-200 status is an error.
func ask(client *http.Client, url string, body []byte, allowEmpty bool) (int, error) {
	resp, err := client.Post(url+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	var out wire.AskResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, err
	}
	if out.Count == 0 && !allowEmpty {
		return resp.StatusCode, fmt.Errorf("empty answer set")
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
