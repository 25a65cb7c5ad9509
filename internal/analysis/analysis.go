// Package analysis is the unified static-analysis framework for YATL
// programs: a go/analysis-style pass driver over a parsed program,
// producing positioned diagnostics.
//
// The paper relies on static guarantees — the §3.4 safe-recursion
// check over the Skolem dependency graph and the §3.5 optional type
// system — but a mediator shipping conversion programs to production
// needs more than two isolated checks returning flat error strings:
// it needs one driver that runs every check and reports each finding
// at the source position of the offending rule, pattern or predicate.
// Each check is an Analyzer; a Pass gives it the program plus a
// Report sink; the driver collects, deduplicates and sorts the
// diagnostics. The existing engine.CheckSafety and typing inference
// are re-exposed as passes (see adapters.go) so `yatcheck` and `yatc
// -force` run everything through a single entry point.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/yatl"
)

// Pos is a source position, shared with the yatl front end.
type Pos = pattern.Pos

// Severity grades a diagnostic. Errors make yatcheck (and yatc
// without -force) reject the program; warnings and infos are
// advisory.
type Severity int

// The severities, ordered from least to most severe.
const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityError
)

// String renders the severity in lower case.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalText implements encoding.TextMarshaler for -json output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseSeverity reads a severity name ("info", "warning", "error").
func ParseSeverity(name string) (Severity, error) {
	switch strings.ToLower(name) {
	case "info":
		return SeverityInfo, nil
	case "warning", "warn":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	}
	return 0, fmt.Errorf("analysis: unknown severity %q (want info, warning or error)", name)
}

// Related is a secondary location attached to a diagnostic (the first
// declaration a duplicate clashes with, the head a reference
// disagrees with, ...).
type Related struct {
	Pos     Pos    `json:"pos"`
	Message string `json:"message"`
}

// Diagnostic is one finding: a position in the program source, a
// severity, the category (the reporting analyzer's name), the message
// and optional related positions.
type Diagnostic struct {
	Pos      Pos       `json:"pos"`
	Severity Severity  `json:"severity"`
	Category string    `json:"category"`
	Message  string    `json:"message"`
	Related  []Related `json:"related,omitempty"`
}

// String renders the diagnostic as "line:col: severity: [category] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", d.Pos, d.Severity, d.Category, d.Message)
}

// Analyzer is one static check over a parsed YATL program.
type Analyzer struct {
	// Name identifies the analyzer; it becomes the Category of every
	// diagnostic it reports.
	Name string
	// Doc is a one-line description shown by `yatcheck -list`.
	Doc string
	// Run performs the check, reporting findings through the pass. A
	// non-nil error aborts the whole driver run (reserved for internal
	// failures, not findings).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of the program under analysis.
type Pass struct {
	Analyzer *Analyzer
	// Prog is the program under analysis. Analyzers must not mutate it.
	Prog *yatl.Program
	// Registry supplies external function signatures (never nil).
	Registry *engine.Registry

	diags     *[]Diagnostic
	deadRules func() *DeadRules
}

// Report records a diagnostic; an empty Category defaults to the
// analyzer name.
func (p *Pass) Report(d Diagnostic) {
	if d.Category == "" {
		d.Category = p.Analyzer.Name
	}
	*p.diags = append(*p.diags, d)
}

// Reportf records a diagnostic at pos with the analyzer's category.
func (p *Pass) Reportf(pos Pos, sev Severity, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Options configures a driver run.
type Options struct {
	// Registry supplies external function signatures; nil uses
	// engine.NewRegistry().
	Registry *engine.Registry
}

// Run executes the analyzers over the program and returns their
// diagnostics sorted by position (then severity, category, message),
// with exact duplicates removed.
func Run(prog *yatl.Program, analyzers []*Analyzer, opts *Options) ([]Diagnostic, error) {
	reg := (*engine.Registry)(nil)
	if opts != nil {
		reg = opts.Registry
	}
	if reg == nil {
		reg = engine.NewRegistry()
	}
	var diags []Diagnostic
	deadRules := sync.OnceValue(func() *DeadRules { return FindDeadRules(prog) })
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Prog: prog, Registry: reg, diags: &diags, deadRules: deadRules}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos != b.Pos {
			return a.Pos.Before(b.Pos)
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
	return dedup(diags), nil
}

func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if p.Pos == d.Pos && p.Severity == d.Severity && p.Category == d.Category && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// Max returns the highest severity among the diagnostics, and whether
// there was at least one diagnostic.
func Max(diags []Diagnostic) (Severity, bool) {
	if len(diags) == 0 {
		return 0, false
	}
	max := diags[0].Severity
	for _, d := range diags[1:] {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// AtLeast counts the diagnostics at or above the given severity.
func AtLeast(diags []Diagnostic, min Severity) int {
	n := 0
	for _, d := range diags {
		if d.Severity >= min {
			n++
		}
	}
	return n
}

// DefaultAnalyzers returns every analyzer of the framework: the eight
// syntactic checks, the safety, typing and coverage adapters, and
// deadrule, which reports what FindDeadRules proves dead.
// Run executes them in order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		RangeRestriction,
		UnusedVars,
		RuleNames,
		SkolemArity,
		UndefinedRef,
		PredSanity,
		Collections,
		ExceptionRules,
		Safety,
		Typing,
		Coverage,
		DeadRule,
	}
}

// ByName returns the analyzer with the given name from DefaultAnalyzers.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}
