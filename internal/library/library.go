// Package library implements the program and format library of the
// YAT system (Figure 6): saving and importing conversion programs and
// models in the YATL text format, from memory or from a directory on
// disk. The paper's workflow — "the application programmer first
// imports two generic conversion programs" — starts here.
package library

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"yat/internal/pattern"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// Library stores named programs and models.
type Library struct {
	programs map[string]*yatl.Program
	models   map[string]*pattern.Model
}

// New returns an empty library.
func New() *Library {
	return &Library{
		programs: map[string]*yatl.Program{},
		models:   map[string]*pattern.Model{},
	}
}

// Builtin returns a library preloaded with the paper's programs and
// models: sgml2odmg (Rules 1+2), sgml2odmgTyped (annotated),
// sgml2odmgPrime (Rule 1'+2), odmg2html (Web1–Web6), and the Yat,
// ODMG, CarSchema and Brochure models.
func Builtin() *Library {
	l := New()
	for _, src := range []string{
		yatl.SGMLToODMGSource,
		yatl.AnnotatedSGMLToODMGSource,
		yatl.SGMLToODMGPrimeSource,
		yatl.WebProgramSource,
	} {
		p := yatl.MustParse(src)
		l.PutProgram(p)
	}
	l.PutModel("Yat", pattern.YatModel())
	l.PutModel("ODMG", pattern.ODMGModel())
	l.PutModel("CarSchema", pattern.CarSchemaModel())
	l.PutModel("Brochure", pattern.BrochureModel())
	l.PutModel("HTML", pattern.HTMLModel())
	return l
}

// PutProgram stores a program under its own name.
func (l *Library) PutProgram(p *yatl.Program) { l.programs[p.Name] = p }

// Program returns a stored program (cloned, so callers may customize
// it freely).
func (l *Library) Program(name string) (*yatl.Program, bool) {
	p, ok := l.programs[name]
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// PutModel stores a model.
func (l *Library) PutModel(name string, m *pattern.Model) { l.models[name] = m }

// Model returns a stored model (cloned).
func (l *Library) Model(name string) (*pattern.Model, bool) {
	m, ok := l.models[name]
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// Programs lists stored program names, sorted.
func (l *Library) Programs() []string {
	out := make([]string, 0, len(l.programs))
	for n := range l.programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Models lists stored model names, sorted.
func (l *Library) Models() []string {
	out := make([]string, 0, len(l.models))
	for n := range l.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SaveProgram writes a program to a .yatl file.
func SaveProgram(p *yatl.Program, path string) error {
	return os.WriteFile(path, []byte(p.String()), 0o644)
}

// LoadProgram reads a .yatl file.
func LoadProgram(path string) (*yatl.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := yatl.Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("library: %s: %w", path, err)
	}
	return p, nil
}

// ResolveProgram resolves the program spec every tool's -program flag
// takes: a .yatl file, the name of a built-in program, or selective:K
// (the synthetic K-view workload program).
func ResolveProgram(spec string) (*yatl.Program, error) {
	if k, ok := strings.CutPrefix(spec, "selective:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad spec %q: want selective:K with K > 0", spec)
		}
		return yatl.Parse(workload.SelectiveProgram(n))
	}
	if strings.HasSuffix(spec, ".yatl") {
		return LoadProgram(spec)
	}
	if p, ok := Builtin().Program(spec); ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown program %q (not a .yatl file, built-in, or selective:K)", spec)
}

// SaveModel writes a model to a .yatm file as a model block.
func SaveModel(name string, m *pattern.Model, path string) error {
	var b strings.Builder
	b.WriteString("model ")
	b.WriteString(name)
	b.WriteString(" {\n")
	for _, p := range m.Patterns() {
		b.WriteString("  ")
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// LoadModel reads a .yatm file.
func LoadModel(path string) (string, *pattern.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	name, m, err := yatl.ParseModel(string(data))
	if err != nil {
		return "", nil, fmt.Errorf("library: %s: %w", path, err)
	}
	return name, m, nil
}

// LoadDir loads every .yatl program and .yatm model under dir into a
// new library.
func LoadDir(dir string) (*Library, error) {
	l := New()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".yatl":
			p, err := LoadProgram(path)
			if err != nil {
				return nil, err
			}
			l.PutProgram(p)
		case ".yatm":
			name, m, err := LoadModel(path)
			if err != nil {
				return nil, err
			}
			l.PutModel(name, m)
		}
	}
	return l, nil
}

// SaveDir writes the whole library into a directory.
func (l *Library) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, n := range l.Programs() {
		p := l.programs[n]
		if err := SaveProgram(p, filepath.Join(dir, n+".yatl")); err != nil {
			return err
		}
	}
	for _, n := range l.Models() {
		if err := SaveModel(n, l.models[n], filepath.Join(dir, n+".yatm")); err != nil {
			return err
		}
	}
	return nil
}
