// Yatviz inspects YAT artifacts: it pretty-prints programs, shows
// their rule hierarchies, conflicts and inferred signatures, and
// renders stores as Graphviz DOT — the textual stand-in for the
// original prototype's graphical editors (Figures 7 and 8).
//
// Usage:
//
//	yatviz -program <file.yatl | name>   print rules, hierarchy, signature
//	yatviz -store <file> [-dot]          print or DOT-render a store
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"yat/internal/engine"
	"yat/internal/library"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/typing"
)

func main() {
	var (
		programFlag = flag.String("program", "", "program to inspect (.yatl file or built-in name)")
		storeFlag   = flag.String("store", "", "store file to inspect")
		dotFlag     = flag.Bool("dot", false, "render the store as Graphviz DOT")
	)
	flag.Parse()

	switch {
	case *programFlag != "":
		fail(inspectProgram(os.Stdout, *programFlag))
	case *storeFlag != "":
		fail(inspectStore(os.Stdout, *storeFlag, *dotFlag))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func inspectProgram(w io.Writer, spec string) error {
	prog, err := library.ResolveProgram(spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "program %s: %d rules\n\n", prog.Name, len(prog.Rules))
	fmt.Fprint(w, prog.String())

	// The verdict of engine.Check, the check Compile and a server's
	// reload run: rule names distinct, and §3.4's safety.
	if err := engine.Check(prog); err != nil {
		fmt.Fprintf(w, "\nsafety: REJECTED — %v\n", err)
	} else {
		fmt.Fprintf(w, "\nsafety: ok (rule names distinct; no dereferenced-Skolem cycle, or safe-recursive)\n")
	}

	model := pattern.NewModel()
	for _, m := range prog.Models {
		model = model.Merge(m.Model)
	}
	h := engine.BuildHierarchy(prog, model)
	fmt.Fprintln(w, "\nrule hierarchy (most specific first):")
	for _, f := range h.FunctorOrder {
		var names []string
		for _, r := range h.Groups[f] {
			names = append(names, r.Name)
		}
		fmt.Fprintf(w, "  %s: %s\n", f, strings.Join(names, " > "))
	}
	if len(h.Conflicts) > 0 {
		fmt.Fprintln(w, "conflicts (specific shadows general):")
		for _, c := range h.Conflicts {
			fmt.Fprintf(w, "  %s shadows %s\n", c[0], c[1])
		}
	}

	sig, err := typing.Infer(prog, nil)
	if err != nil {
		fmt.Fprintf(w, "\nsignature: inference failed: %v\n", err)
		return nil
	}
	fmt.Fprintf(w, "\nsignature M_IN ↦ M_OUT:\n%s", sig.String())
	return nil
}

func inspectStore(w io.Writer, path string, dot bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	store, err := tree.ParseStore(string(data))
	if err != nil {
		return err
	}
	if dot {
		fmt.Fprint(w, tree.Dot(store.Entries(), path))
		return nil
	}
	for _, e := range store.Entries() {
		fmt.Fprintf(w, "%s:\n%s", e.Name, e.Tree.Indent())
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "yatviz:", err)
		os.Exit(1)
	}
}
