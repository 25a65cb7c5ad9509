// Yatprof runs a YATL conversion under the tracing layer and prints
// an EXPLAIN profile of the run: which rules fired, how many bindings
// each phase saw and dropped (with reasons), which external functions
// were called and how often, how many Skolem identities were minted,
// and where the wall time went. It is the observability companion to
// yatc — same program and input conventions, but the converted store
// is discarded and the profile is the output.
//
// Usage:
//
//	yatprof -program <file.yatl | name> [flags]
//
//	-program      a .yatl file, the name of a built-in library
//	              program (sgml2odmg, sgml2odmgTyped, sgml2odmgPrime,
//	              odmg2html), or selective:K
//	-input        input store in YAT tree syntax (default: stdin)
//	-json         emit the profile as JSON instead of the text table
//	-timing       include wall-clock times (off by default so output
//	              is deterministic and diffable)
//	-ask          profile a mediator query (YATL pattern) instead of a
//	              full conversion
//	-functors     comma-separated Skolem functors restricting -ask
//	-demand       answer -ask demand-driven: materialize only the rule
//	              slice the functors need (the profile then shows the
//	              slice and per-rule cache decisions)
//	-fault        with -ask: serve the input store through the
//	              fault-tolerant source layer with N scripted failures
//	              before it heals; the query degrades through retries
//	              and the profile gains the per-source fetch/retry
//	              lines (the schedule runs on a fake clock — no real
//	              backoff sleeps)
//	-stats        with -ask: print the mediator's statistics (the
//	              shared mediator.Stats rendering, also served by
//	              yatserve's GET /stats) instead of the EXPLAIN
//	              profile; -json and -timing apply
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"yat"
	"yat/internal/library"
	"yat/internal/tree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, executes the program
// under a profile sink, and writes the rendered profile to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yatprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		programFlag = fs.String("program", "", "conversion program (.yatl file or built-in name)")
		inputFlag   = fs.String("input", "", "input store file (YAT tree syntax); default stdin")
		jsonFlag    = fs.Bool("json", false, "emit the profile as JSON")
		timingFlag  = fs.Bool("timing", false, "include wall-clock times in the profile")
		askFlag     = fs.String("ask", "", "profile a mediator query (YATL pattern) instead of a run")
		funcFlag    = fs.String("functors", "", "comma-separated Skolem functors restricting -ask")
		demandFlag  = fs.Bool("demand", false, "answer -ask demand-driven (slice + per-rule cache)")
		faultFlag   = fs.Int("fault", 0, "with -ask: inject N scripted source failures before the input store serves")
		statsFlag   = fs.Bool("stats", false, "with -ask: print mediator stats instead of the EXPLAIN profile")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *programFlag == "" {
		fmt.Fprintln(stderr, "yatprof: -program is required")
		fs.Usage()
		return 2
	}

	prog, err := library.ResolveProgram(*programFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatprof:", err)
		return 1
	}
	inputs, err := loadInputs(*inputFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatprof:", err)
		return 1
	}

	profile := yat.NewTraceProfile()
	var warnings []string
	if *faultFlag > 0 && *askFlag == "" {
		fmt.Fprintln(stderr, "yatprof: -fault requires -ask (it exercises the mediator's source layer)")
		return 2
	}
	if *statsFlag && *askFlag == "" {
		fmt.Fprintln(stderr, "yatprof: -stats requires -ask (stats describe a mediator)")
		return 2
	}
	var med *yat.Mediator
	if *askFlag != "" {
		opts := []yat.Option{
			yat.WithTrace(profile),
			yat.WithDemandDriven(*demandFlag),
		}
		if *faultFlag > 0 {
			// Serve the store through the fault layer: N scripted
			// failures, then healthy, retried on a fake clock so the
			// exponential backoff costs no wall time.
			clock := yat.NewFakeSourceClock()
			steps := make([]yat.FaultStep, *faultFlag)
			for i := range steps {
				steps[i] = yat.FaultStep{Fail: fmt.Errorf("injected fault %d", i+1)}
			}
			fault := yat.NewFaultSource("input", inputs, steps...).WithClock(clock)
			src := yat.SourceWithRetry(fault, yat.RetryOptions{
				MaxAttempts: *faultFlag + 1,
				Clock:       clock,
			})
			opts = append(opts, yat.WithSources(src))
			inputs = nil
		}
		med = yat.NewMediator(prog, inputs, opts...)
		var functors []string
		for _, f := range strings.Split(*funcFlag, ",") {
			if f = strings.TrimSpace(f); f != "" {
				functors = append(functors, f)
			}
		}
		var answers []yat.MediatorAnswer
		answers, err = med.Ask(*askFlag, functors...)
		if err == nil {
			fmt.Fprintf(stdout, "answers: %d\n", len(answers))
		}
	} else {
		var result *yat.Result
		result, err = yat.Run(prog, inputs, yat.WithTrace(profile))
		warnings = warningsOf(result)
	}
	// A failed run still has a profile worth printing (it shows how
	// far the conversion got); report the error after the table.
	for _, w := range warnings {
		fmt.Fprintln(stderr, "yatprof: warning:", w)
	}
	if *statsFlag {
		stats := med.Stats()
		if *jsonFlag {
			data, jerr := stats.JSON(*timingFlag)
			if jerr != nil {
				fmt.Fprintln(stderr, "yatprof:", jerr)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", data)
		} else if rerr := stats.Render(stdout, *timingFlag); rerr != nil {
			fmt.Fprintln(stderr, "yatprof:", rerr)
			return 1
		}
	} else if *jsonFlag {
		data, jerr := profile.JSON(*timingFlag)
		if jerr != nil {
			fmt.Fprintln(stderr, "yatprof:", jerr)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else if rerr := profile.Render(stdout, *timingFlag); rerr != nil {
		fmt.Fprintln(stderr, "yatprof:", rerr)
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "yatprof:", err)
		return 1
	}
	return 0
}

func warningsOf(result *yat.Result) []string {
	if result == nil {
		return nil
	}
	return result.Warnings
}

func loadInputs(inputFile string) (*yat.Store, error) {
	var data []byte
	var err error
	if inputFile == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(inputFile)
	}
	if err != nil {
		return nil, err
	}
	return tree.ParseStore(string(data))
}
