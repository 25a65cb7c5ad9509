package engine

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"yat/internal/memo"
	"yat/internal/pattern"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Compiled is a program prepared once for any number of runs: what
// §3.4 safety, the §4.2 hierarchy and each rule's plan say belongs to
// the program, not to one run. It holds the safety verdict, the merged
// model, the hierarchy, the rule plans by rule position with their twin
// groups (the plans AffectedRules matches with), and a memo of the
// program's slices, filled as they are asked for. It is immutable but
// for that memo and safe for concurrent runs.
type Compiled struct {
	prog *yatl.Program
	opts *Options
	// err is Check's verdict: nil, or the error every run returns.
	err   error
	model *pattern.Model
	hier  hierarchy
	// plans holds each rule's plan by position, nil for an exception
	// rule; twins counts the twin groups their twin fields number.
	plans []*rulePlan
	twins int
	// all is what a full run runs: every non-exception rule and every
	// functor group.
	all scope

	sliceOnce sync.Once
	slices    *memo.Map[string, Slice]

	// roundBound is maxRounds; a test lowers it to reach the guard
	// with a small input.
	roundBound int
}

// scope is what a run runs: rule positions in declaration order, and
// the indexes of the hierarchy's functor groups to dispatch to.
type scope struct{ rules, groups []int }

// DuplicateRuleError reports two rules of one program sharing a name,
// which slices, hierarchy orders and reloads could not tell apart.
type DuplicateRuleError struct {
	Rule string
}

func (e *DuplicateRuleError) Error() string {
	return fmt.Sprintf("engine: two rules are named %s", e.Rule)
}

// Check is the static check of a program Compile runs: every rule has
// a name of its own (else a *DuplicateRuleError), and the program
// passes §3.4 (CheckSafety).
func Check(prog *yatl.Program) error {
	seen := make(map[string]bool, len(prog.Rules))
	for _, r := range prog.Rules {
		if seen[r.Name] {
			return &DuplicateRuleError{Rule: r.Name}
		}
		seen[r.Name] = true
	}
	return CheckSafety(prog)
}

// Compile prepares a program for running under the options; the
// options of every run over the result are these. It returns the
// error of Check beside a Compiled that is usable all the same: its
// slices and AffectedRules answer, and every run over it returns that
// error.
func Compile(prog *yatl.Program, opts ...Option) (*Compiled, error) {
	c := &Compiled{prog: prog, opts: NewOptions(opts...), plans: make([]*rulePlan, len(prog.Rules)), roundBound: maxRounds}
	c.err = Check(prog)
	c.model = pattern.NewModel()
	for _, m := range prog.Models {
		c.model = c.model.Merge(m.Model)
	}
	c.hier = buildHierarchy(prog, c.model)
	nf := len(c.hier.functors)
	all := make([]int, nf, nf+len(prog.Rules))
	for i := range nf {
		all[i] = i
	}
	c.all = scope{groups: all, rules: all[nf:]}
	for p, rule := range prog.Rules {
		if rule.Exception {
			continue
		}
		rp := compileRule(rule)
		// Twin rules share their match: a single-pattern rule whose body
		// compiles to an earlier rule's plan joins that rule's group.
		for _, q := range c.all.rules {
			if t := c.plans[q]; len(rp.bodies) == 1 && len(t.bodies) == 1 && sameBody(&t.bodies[0], &rp.bodies[0]) {
				if t.twin == 0 {
					c.twins++
					t.twin = c.twins
				}
				rp.twin = t.twin
				break
			}
		}
		c.plans[p] = rp
		c.all.rules = append(c.all.rules, p)
	}
	return c, c.err
}

// Program returns the program compiled.
func (c *Compiled) Program() *yatl.Program { return c.prog }

// Options returns the configuration the program was compiled under,
// which every run over it uses. It must not be written.
func (c *Compiled) Options() *Options { return c.opts }

// Run executes the program over the input store under ctx (nil: no
// cancellation); see the package-level Run.
func (c *Compiled) Run(ctx context.Context, inputs *tree.Store) (*Result, error) {
	return c.execute(ctx, inputs, nil)
}

// RunSlice executes only the given slice of the program over the input
// store: the construct rules' outputs are byte-identical to the same
// rules' outputs in a full run, fully dereferenced within the slice;
// references to functors outside the closure stay symbolic and are not
// warned about as dangling. A nil slice is the whole program's; a slice
// of another program value is taken again, by its functors, from this
// one. A program that fails the §3.4 check fails every slice run.
func (c *Compiled) RunSlice(ctx context.Context, inputs *tree.Store, sl *Slice) (*Result, error) {
	if sl == nil {
		sl = c.Slice()
	} else if sl.prog != c.prog {
		sl = c.Slice(sl.Functors...)
	}
	if sink := c.sink(ctx); sink != nil {
		start := time.Now()
		defer func() {
			sink.Emit(trace.Event{Kind: trace.KindSliceComputed, Phase: trace.PhaseSlice,
				Count: sl.Rules(), Detail: sl.String(), Duration: time.Since(start)})
		}()
	}
	return c.execute(ctx, inputs, sl)
}

// sink is the trace sink of a run under ctx: the one the context
// carries (trace.WithSink), else the one compiled in (WithTrace).
func (c *Compiled) sink(ctx context.Context) trace.Sink {
	if s := trace.SinkFrom(ctx); s != nil {
		return s
	}
	return c.opts.Trace
}

// maxSlices bounds the slices a Compiled retains; combinations past
// the cap are computed but not retained.
const maxSlices = 1024

// Slice returns the slice for the functors (none = the whole program),
// computed once per combination (ComputeSlice): the order of the
// functors and their repeats do not matter, and a repeated
// single-functor probe allocates nothing.
func (c *Compiled) Slice(functors ...string) *Slice {
	if len(functors) > 1 {
		functors = sortedUnique(functors)
	}
	key, ok := memo.ListKey(functors)
	if !ok {
		return c.computeSlice(functors)
	}
	// A slice is sized roughly, by its key and lists.
	c.sliceOnce.Do(func() {
		c.slices = memo.New(maxSlices, memo.MaxBytes,
			func(key string, sl *Slice) int64 { return int64(len(key) + 64*(sl.Rules()+len(sl.Closure))) })
	})
	if sl := c.slices.Load(key); sl != nil {
		return sl
	}
	sl := c.computeSlice(functors)
	return cmp.Or(c.slices.Update(key, func(old *Slice) *Slice { return cmp.Or(old, sl) }), sl)
}
