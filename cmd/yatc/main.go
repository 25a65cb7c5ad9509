// Yatc is the YAT conversion runner (the stand-alone executable of
// §5: wrappers + interpreter linked into one program, usable like
// LATEX2HTML or as a CGI backend).
//
// Usage:
//
//	yatc -program <file.yatl | name> [flags]
//
//	-program   a .yatl file, or the name of a built-in library
//	           program (sgml2odmg, sgml2odmgTyped, sgml2odmgPrime,
//	           odmg2html)
//	-compose   a second program to fuse with -program (§4.3): the
//	           run uses Compose(program, compose) and never
//	           materializes the intermediate model
//	-input     input store in YAT tree syntax (default: stdin)
//	-sgml      directory of .sgml documents to import instead
//	-dtd       DTD file used to validate -sgml documents
//	-html      directory to export HtmlPage outputs as .html files
//	-out       file for the output store (default: stdout)
//	-serve     address (e.g. :8080) to serve the HtmlPage outputs
//	           over HTTP — the paper's CGI usage of the generated
//	           executable
//	-check     type check: print the inferred signature and exit
//	-force     run even when static analysis reports errors
//	-stats     print run statistics to stderr
//	-explain   print a per-rule/per-phase EXPLAIN profile of the run
//	           to stderr (match counts, dropped bindings by reason,
//	           external-function calls, Skolems, wall times)
//
// Before executing, yatc runs the full static-analysis suite
// (internal/analysis) over every loaded program: warnings and errors
// are printed to stderr, and errors abort the run unless -force is
// given — compile-time rejection with positioned diagnostics instead
// of a failure halfway through a conversion.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"yat"
	"yat/internal/analysis"
	"yat/internal/library"
	"yat/internal/sgml"
	"yat/internal/tree"
	"yat/internal/typing"
)

func main() {
	var (
		programFlag = flag.String("program", "", "conversion program (.yatl file or built-in name)")
		composeFlag = flag.String("compose", "", "second program to fuse with -program (§4.3)")
		inputFlag   = flag.String("input", "", "input store file (YAT tree syntax); default stdin")
		sgmlFlag    = flag.String("sgml", "", "directory of .sgml documents to import")
		dtdFlag     = flag.String("dtd", "", "DTD file to validate SGML documents against")
		htmlFlag    = flag.String("html", "", "directory to export HtmlPage outputs into")
		serveFlag   = flag.String("serve", "", "address to serve HtmlPage outputs over HTTP (e.g. :8080)")
		outFlag     = flag.String("out", "", "output store file; default stdout")
		checkFlag   = flag.Bool("check", false, "print the inferred signature and exit")
		forceFlag   = flag.Bool("force", false, "run even when static analysis reports errors")
		statsFlag   = flag.Bool("stats", false, "print run statistics to stderr")
		explainFlag = flag.Bool("explain", false, "print a per-rule EXPLAIN profile to stderr")
	)
	flag.Parse()
	if *programFlag == "" {
		fmt.Fprintln(os.Stderr, "yatc: -program is required")
		flag.Usage()
		os.Exit(2)
	}

	prog, err := library.ResolveProgram(*programFlag)
	fail(err)
	analyzeOrFail(*programFlag, prog, *forceFlag)
	if *composeFlag != "" {
		second, err := library.ResolveProgram(*composeFlag)
		fail(err)
		analyzeOrFail(*composeFlag, second, *forceFlag)
		prog, err = yat.ComposePrograms(prog, second)
		fail(err)
		fmt.Fprintf(os.Stderr, "yatc: composed %s (%d fused rules)\n", prog.Name, len(prog.Rules))
	}

	if *checkFlag {
		sig, err := typing.Infer(prog, nil)
		fail(err)
		fmt.Print(sig.String())
		return
	}

	inputs, err := loadInputs(*inputFlag, *sgmlFlag, *dtdFlag)
	fail(err)

	var profile *yat.TraceProfile
	var traced yat.Option // nil, and skipped, without -explain
	if *explainFlag {
		profile = yat.NewTraceProfile()
		traced = yat.WithTrace(profile)
	}
	result, err := yat.Run(prog, inputs, traced)
	fail(err)
	for _, w := range result.Warnings {
		fmt.Fprintln(os.Stderr, "yatc: warning:", w)
	}
	if *statsFlag {
		fmt.Fprintf(os.Stderr, "yatc: %d inputs, %d bindings, %d outputs, %d rounds\n",
			result.Stats.Activations, result.Stats.Bindings,
			result.Stats.Outputs, result.Stats.Rounds)
	}
	if *explainFlag {
		fail(profile.Render(os.Stderr, true))
	}

	if *serveFlag != "" {
		pages, err := yat.ExportHTML(result.Outputs, nil)
		fail(err)
		fmt.Fprintf(os.Stderr, "yatc: serving %d pages on %s (index at /)\n", len(pages), *serveFlag)
		fail(http.ListenAndServe(*serveFlag, pageHandler(pages)))
		return
	}

	if *htmlFlag != "" {
		pages, err := yat.ExportHTML(result.Outputs, nil)
		fail(err)
		fail(os.MkdirAll(*htmlFlag, 0o755))
		for url, content := range pages {
			fail(os.WriteFile(filepath.Join(*htmlFlag, url), []byte(content), 0o644))
		}
		fmt.Fprintf(os.Stderr, "yatc: wrote %d pages to %s\n", len(pages), *htmlFlag)
		return
	}

	dump := yat.FormatStore(result.Outputs)
	if *outFlag == "" {
		fmt.Print(dump)
		return
	}
	fail(os.WriteFile(*outFlag, []byte(dump), 0o644))
}

// analyzeOrFail runs the static-analysis suite over a program before
// execution, printing warnings and errors to stderr. Error-severity
// findings abort the run unless -force was given.
func analyzeOrFail(name string, prog *yat.Program, force bool) {
	diags, err := analysis.Run(prog, analysis.DefaultAnalyzers())
	fail(err)
	errors := 0
	for _, d := range diags {
		if d.Severity < analysis.SeverityWarning {
			continue
		}
		if d.Severity >= analysis.SeverityError {
			errors++
		}
		fmt.Fprintf(os.Stderr, "yatc: %s:%s\n", name, d)
	}
	if errors > 0 && !force {
		fmt.Fprintf(os.Stderr, "yatc: %s: rejected by static analysis (%d error(s)); use -force to run anyway\n", name, errors)
		os.Exit(1)
	}
	if errors > 0 {
		fmt.Fprintf(os.Stderr, "yatc: %s: running despite %d analysis error(s) (-force)\n", name, errors)
	}
}

func loadInputs(inputFile, sgmlDir, dtdFile string) (*yat.Store, error) {
	if sgmlDir != "" {
		entries, err := os.ReadDir(sgmlDir)
		if err != nil {
			return nil, err
		}
		docs := map[string]string{}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".sgml") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(sgmlDir, e.Name()))
			if err != nil {
				return nil, err
			}
			docs[strings.TrimSuffix(e.Name(), ".sgml")] = string(data)
		}
		opts := &yat.SGMLOptions{InferTypes: true}
		if dtdFile != "" {
			data, err := os.ReadFile(dtdFile)
			if err != nil {
				return nil, err
			}
			dtd, err := sgml.ParseDTD(string(data))
			if err != nil {
				return nil, err
			}
			opts.DTD = dtd
		}
		return yat.ImportSGML(docs, opts)
	}
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

// pageHandler serves the exported pages at their URLs, with an index
// of links at the root — the in-process equivalent of the paper's CGI
// deployment.
func pageHandler(pages map[string]string) http.Handler {
	mux := http.NewServeMux()
	urls := make([]string, 0, len(pages))
	for url, content := range pages {
		urls = append(urls, url)
		content := content
		mux.HandleFunc("/"+url, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprint(w, content)
		})
	}
	sort.Strings(urls)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>YAT pages</title></head><body><h1>Converted pages</h1><ul>")
		for _, u := range urls {
			fmt.Fprintf(w, `<li><a href="/%s">%s</a></li>`, u, u)
		}
		fmt.Fprint(w, "</ul></body></html>\n")
	})
	return mux
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "yatc:", err)
		os.Exit(1)
	}
}
