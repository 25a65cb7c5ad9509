// Yatcheck is the stand-alone front end of the static-analysis
// framework (internal/analysis): it parses YATL programs and runs
// every analyzer — range restriction, unused variables, rule names,
// Skolem arities, undefined references, predicate sanity, collection
// primitives, exception reachability, §3.4 safety and §3.5 typing —
// reporting positioned diagnostics.
//
// Usage:
//
//	yatcheck [flags] [file.yatl ...]
//
//	-builtin    also check every built-in library program
//	-json       emit diagnostics as JSON instead of text
//	-severity   exit non-zero when a diagnostic at or above this
//	            severity is found: info, warning or error (default error)
//	-list       list the registered analyzers and exit
//
// Diagnostics print as `file:line:col: severity: [category] message`,
// in a pinned total order — file, then line, then column, then
// analyzer name — so output is byte-stable across runs and input
// orderings. The exit status is 0 when the programs are clean under
// the threshold, 1 when findings reach it, and 2 on usage or I/O
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"yat/internal/analysis"
	"yat/internal/library"
	"yat/internal/yatl"
)

// fileDiagnostic is the JSON shape of one finding: a diagnostic plus
// the program (file or builtin name) it was found in.
type fileDiagnostic struct {
	File string `json:"file"`
	analysis.Diagnostic
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yatcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtinFlag  = fs.Bool("builtin", false, "also check every built-in library program")
		jsonFlag     = fs.Bool("json", false, "emit diagnostics as JSON")
		severityFlag = fs.String("severity", "error", "fail when a diagnostic at or above this severity exists (info|warning|error)")
		listFlag     = fs.Bool("list", false, "list the registered analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range analysis.DefaultAnalyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	threshold, err := analysis.ParseSeverity(*severityFlag)
	if err != nil {
		fmt.Fprintln(stderr, "yatcheck:", err)
		return 2
	}
	if fs.NArg() == 0 && !*builtinFlag {
		fmt.Fprintln(stderr, "yatcheck: no input files (and -builtin not set)")
		fs.Usage()
		return 2
	}

	type target struct {
		name string
		prog *yatl.Program
		err  error
	}
	var targets []target
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "yatcheck:", err)
			return 2
		}
		prog, err := yatl.Parse(string(data))
		targets = append(targets, target{name: path, prog: prog, err: err})
	}
	if *builtinFlag {
		lib := library.Builtin()
		for _, name := range lib.Programs() {
			prog, _ := lib.Program(name)
			targets = append(targets, target{name: "builtin:" + name, prog: prog})
		}
	}

	var all []fileDiagnostic
	for _, t := range targets {
		if t.err != nil {
			// Surface syntax errors as error-severity diagnostics so
			// broken files fail the gate with a position, like any
			// other finding.
			d := analysis.Diagnostic{Severity: analysis.SeverityError, Category: "syntax", Message: t.err.Error()}
			if pe, ok := t.err.(*yatl.ParseError); ok {
				d.Pos = pe.Pos
				d.Message = pe.Msg
			}
			all = append(all, fileDiagnostic{File: t.name, Diagnostic: d})
			continue
		}
		diags, err := analysis.Run(t.prog, analysis.DefaultAnalyzers())
		if err != nil {
			fmt.Fprintln(stderr, "yatcheck:", err)
			return 2
		}
		for _, d := range diags {
			all = append(all, fileDiagnostic{File: t.name, Diagnostic: d})
		}
	}

	// Pin a total order over the combined output: file, then line, then
	// column, then analyzer name. analysis.Run orders findings within
	// one program, but the combined stream must not depend on argument
	// order tie-breaking or per-analyzer emission order, so both the
	// JSON and text renderings sort here. Severity and message are
	// final tie-breakers to keep the order total.
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Message < b.Message
	})

	if *jsonFlag {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "yatcheck:", err)
			return 2
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(stdout, "%s:%s\n", d.File, d.Diagnostic)
			for _, rel := range d.Related {
				fmt.Fprintf(stdout, "%s:%s: note: %s\n", d.File, rel.Pos, rel.Message)
			}
		}
	}

	failing := 0
	for _, d := range all {
		if d.Severity >= threshold {
			failing++
		}
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "yatcheck: %d finding(s) at or above %s in %d program(s)\n", failing, threshold, len(targets))
		return 1
	}
	return 0
}
