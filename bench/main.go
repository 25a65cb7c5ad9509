// Bench is the repository's one benchmark: five named workloads over
// the YAT mediator stack, measured end to end with tracing off and
// layer by layer in a separate traced run, with every answer checked
// against an oracle. README.md in this directory defines the
// workloads and metrics; BENCHMARK.json at the repository root
// declares them.
//
//	go run ./bench --workload serve_warm --seed 42 --seconds 12 --trace 0
//	    one run of one workload; the last line of standard output is
//	    {"correct":…,"attempted":…,"failed":…,"metrics":{…}} with the
//	    end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
//	go run ./bench > a.json
//	    every workload, untraced then traced, each run in a fresh child
//	    process; one combined JSON document on standard output, a table
//	    on standard error
//	go run ./bench -smoke
//	    the same with 0.3 s windows, 0.1 s warm-ups and one set-up per run
//	go run ./bench -compare a.json b.json
//	    two combined documents side by side; exits 1 when b is worse
//	    than a by more than a metric's bound, a metric is missing, or
//	    anything failed. Two sets of runs of one commit agree when the
//	    comparison passes in both directions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// The program runs from the repository root. declarationFile names the
// workloads and every metric; outDir receives the traces and full
// reports, sits inside the benchmark's own directory and is
// git-ignored.
const declarationFile = "BENCHMARK.json"

var outDir = filepath.Join("bench", "out")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		workload = flags.String("workload", "", "run this one workload (default: all, each in a child process)")
		seed     = flags.Uint64("seed", 42, "seed of the input generators and the key order")
		seconds  = flags.Float64("seconds", 18, "length of the measured window")
		traced   = flags.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		smoke    = flags.Bool("smoke", false, "0.3 s windows, 0.1 s warm-ups, one set-up per run: a quick pass over everything")
		compare  = flags.Bool("compare", false, "compare two combined documents: -compare a.json b.json")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := declare(declarationFile); err != nil {
		return fail(err)
	}
	if *compare {
		if flags.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		ok, err := compareFiles(flags.Arg(0), flags.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, warmup: time.Second,
		trace: *traced != 0, setups: 9, reps: 5, outDir: outDir}
	if *smoke {
		cfg.seconds, cfg.warmup, cfg.setups, cfg.reps = 0.3, 100*time.Millisecond, 1, 1
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}

	if *workload == "" {
		doc, err := runAll(cfg, *smoke, stderr)
		if err != nil {
			return fail(err)
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if _, err := stdout.Write(append(data, '\n')); err != nil {
			return fail(err)
		}
		if !doc.correct() {
			return fail(fmt.Errorf("some operation failed or disagreed with its oracle"))
		}
		return 0
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(cfg.outPath(reportSuffix(cfg.trace)), rep); err != nil {
		return fail(err)
	}
	printTable(stderr, rep)
	if err := printResultLine(stdout, rep); err != nil {
		return fail(err)
	}
	if !rep.Correct {
		return fail(fmt.Errorf("%s: %d of %d operations failed or disagreed with the oracle",
			rep.Workload, rep.Failed, rep.Attempted))
	}
	return 0
}

func reportSuffix(trace bool) string {
	if trace {
		return ".layers.json"
	}
	return ".e2e.json"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResultLine prints the one-line result a driver reads: exactly
// correct, attempted, failed and metrics, each metric exactly a value
// and a unit.
func printResultLine(w io.Writer, rep *report) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printTable lists a report's metrics by name, value, unit and sample
// count.
func printTable(w io.Writer, rep *report) {
	kind := "end to end, tracing off"
	if rep.Trace {
		kind = "per layer, traced"
	}
	fmt.Fprintf(w, "%s (%s): seed %d, %g s window, %d attempted, %d failed\n",
		rep.Workload, kind, rep.Seed, rep.Seconds, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := rep.Metrics[name]
		note := ""
		if m.Thin {
			note = "  (fewer than 10 samples beyond it in some slice)"
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d%s\n", name, m.Value, m.Unit, m.N, note)
	}
	tw.Flush()
}

// document is the combined output of one complete set of runs.
type document struct {
	Environment environment          `json:"environment"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	WarmupS     float64              `json:"warmup_seconds"`
	Slices      int                  `json:"slices"`
	EndToEnd    []metricDef          `json:"end_to_end"`
	Workloads   map[string]*combined `json:"workloads"`
}

// combined is one workload's two runs.
type combined struct {
	EndToEnd *report `json:"end_to_end"`
	Layers   *report `json:"layers"`
}

func (d *document) correct() bool {
	for _, c := range d.Workloads {
		if !c.EndToEnd.Correct || !c.Layers.Correct {
			return false
		}
	}
	return true
}

// runAll runs every workload, untraced and traced, each run in a
// freshly exec'd copy of this program so no run inherits another's
// heap, caches or peak memory.
func runAll(cfg runConfig, smoke bool, stderr io.Writer) (*document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	doc := &document{Environment: currentEnvironment(gitCommit()), Seed: cfg.seed, Seconds: cfg.seconds,
		WarmupS: cfg.warmup.Seconds(), Slices: numSlices, EndToEnd: endToEnd, Workloads: map[string]*combined{}}
	for _, w := range workloads {
		c := &combined{}
		for _, trace := range []bool{false, true} {
			args := []string{"--workload", w.Name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0"}
			if trace {
				args[len(args)-1] = "1"
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			rep, err := runChild(cmd, filepath.Join(cfg.outDir, w.Name+reportSuffix(trace)))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			if trace {
				c.Layers = rep
			} else {
				c.EndToEnd = rep
			}
		}
		doc.Workloads[w.Name] = c
	}
	return doc, nil
}

// runChild runs one child and reads the report it writes to path. A
// report an earlier run left there is removed first, so it can never
// stand in for this run's. The child may exit non-zero only because
// operations failed, which its report then says; any other failure of
// the child is an error here.
func runChild(cmd *exec.Cmd, path string) (*report, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	runErr := cmd.Run()
	rep := &report{}
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, rep)
	}
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	if runErr != nil && rep.Correct {
		return nil, fmt.Errorf("child failed after reporting a correct run: %w", runErr)
	}
	return rep, nil
}

// gitCommit names the measured commit when the checkout is a git
// repository; a bare source tree reads "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// setupFloorS is the absolute half of setup_s's bound: set-ups take
// tens of milliseconds, where a quarter more is a few milliseconds of
// scheduling, so a set-up is worse only when it is also this many
// seconds slower.
const setupFloorS = 0.05

// compareFiles prints each end-to-end metric of each workload in both
// documents with b's relative change and the bound, and reports
// whether b is within every bound of a with nothing missing and
// nothing failed.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict\n")
	for _, wl := range workloads {
		ca, cb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ca == nil || cb == nil || ca.EndToEnd == nil || cb.EndToEnd == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tMISSING\n", wl.Name)
			ok = false
			continue
		}
		for _, def := range endToEnd {
			va, vb := ca.EndToEnd.Metrics[def.Name].Value, cb.EndToEnd.Metrics[def.Name].Value
			// No end-to-end metric is ever 0: a 0 is a metric one document
			// does not have, or a run that measured nothing.
			if va <= 0 || vb <= 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t-\t%.0f%%\tMISSING\n", wl.Name, def.Name, va, vb, 100*def.Bound)
				ok = false
				continue
			}
			verdict := "ok"
			if worse(def, va, vb) {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, def.Name, va, vb,
				100*(vb-va)/va, 100*def.Bound, verdict)
		}
		for _, side := range []*combined{ca, cb} {
			for _, rep := range []*report{side.EndToEnd, side.Layers} {
				if rep != nil && rep.Failed > 0 {
					fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t\t\t0\tFAILED\n", wl.Name, rep.Failed, rep.Attempted)
					ok = false
				}
			}
		}
	}
	tw.Flush()
	return ok, nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// worse reports whether b is worse than a (both positive) by more than
// the metric's bound; setup_s must also be worse by setupFloorS.
func worse(def metricDef, a, b float64) bool {
	by := (b - a) / a
	if def.Better == "higher" {
		by = -by
	}
	return by > def.Bound && (def.Name != "setup_s" || b-a > setupFloorS)
}
