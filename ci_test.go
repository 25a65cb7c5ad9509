package yat

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciRunPattern finds every `-run` flag of a `go test` command line and
// its pattern: quoted in single or double quotes, or bare.
var ciRunPattern = regexp.MustCompile(`(?:^|\s)-run[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)

// testFuncDecl finds a test, fuzz or benchmark function declaration.
var testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// Every alternative of every `-run` pattern in the CI workflow names a
// declared test, fuzz target or benchmark (is a prefix of one): a test
// renamed or deleted would otherwise drop out of the soak, fuzz and
// gate steps without any step failing. `-run '^$'` (run no tests) is
// the one pattern that names none.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var patterns [][]string
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			patterns = append(patterns, ciRunPattern.FindAllStringSubmatch(line, -1)...)
		}
	}
	if len(patterns) < 10 {
		t.Fatalf("found %d -run patterns in ci.yml; the parse is broken", len(patterns))
	}
	for _, m := range patterns {
		pat := m[1] + m[2] + m[3]
		if pat == "^$" {
			continue
		}
		for _, alt := range strings.Split(pat, "|") {
			found := false
			for _, name := range declared {
				if strings.HasPrefix(name, alt) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml runs -run %q: no test, fuzz target or benchmark is named %s…", pat, alt)
			}
		}
	}
}
