package yat

import (
	"context"
	"errors"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// The functional options and the legacy *RunOptions literal are two
// spellings of the same configuration: identical outputs, and nil
// still means defaults.
func TestFunctionalOptionsEquivalent(t *testing.T) {
	prog, err := ParseProgram(Rules1And2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.BrochureStore(6, 2, 4, 42)
	legacy, err := Run(prog, inputs, &RunOptions{Registry: NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	functional, err := Run(prog, inputs, WithRegistry(NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if FormatStore(functional.Outputs) != FormatStore(legacy.Outputs) {
		t.Error("functional options changed the run's outputs")
	}
	bare, err := Run(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's no-op options are nil, and a run skips them.
	noop, err := Run(prog, inputs, WithFacts(AnalyzeProgram(prog)), WithOptimize(false), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if FormatStore(bare.Outputs) != FormatStore(viaNil.Outputs) ||
		FormatStore(bare.Outputs) != FormatStore(legacy.Outputs) ||
		FormatStore(bare.Outputs) != FormatStore(noop.Outputs) {
		t.Error("default configurations disagree")
	}
}

func TestRunContextCancellation(t *testing.T) {
	prog, err := ParseProgram(Rules1And2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunContext(ctx, prog, workload.BrochureStore(10, 2, 5, 42))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	// A live context runs normally.
	res, err := RunContext(context.Background(), prog, workload.BrochureStore(4, 2, 3, 42),
		&RunOptions{Registry: NewRegistry()})
	if err != nil || res.Outputs.Len() == 0 {
		t.Errorf("live RunContext failed: %v", err)
	}
}

// The typed errors are errors.As-able through the facade.
func TestTypedErrors(t *testing.T) {
	if _, err := ParseProgram("program p\nrule {"); err == nil {
		t.Fatal("bad program accepted")
	} else {
		var pe *ParseError
		if !errors.As(err, &pe) || !pe.Pos.IsValid() {
			t.Errorf("parse failure not a positioned *ParseError: %v", err)
		}
	}

	cyclic, err := ParseProgram(yatl.CyclicProgramSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cyclic, NewStore()); err == nil {
		t.Fatal("cyclic program accepted")
	} else {
		var se *SafetyError
		if !errors.As(err, &se) || len(se.Violations) == 0 {
			t.Errorf("safety failure not a *SafetyError: %v", err)
		}
	}

	unconv, err := ParseProgram(`
program p
rule R {
  head Pout(X) = out
  from X = in
}
rule E {
  exception
  from Pany = Data
}
`)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Put(tree.PlainName("o1"), tree.Sym("other"))
	if _, err := Run(unconv, store); err == nil {
		t.Fatal("exception rule did not fire")
	} else {
		var ue *ErrUnconverted
		if !errors.As(err, &ue) || len(ue.IDs) != 1 {
			t.Errorf("exception failure not an *ErrUnconverted: %v", err)
		}
	}
}

// End-to-end through the facade: a demand-driven mediator built from
// functional options answers like a full one and honors context.
func TestFacadeDemandMediator(t *testing.T) {
	prog, err := ParseProgram(Rules1And2)
	if err != nil {
		t.Fatal(err)
	}
	inputs := workload.BrochureStore(6, 2, 4, 9)
	full := NewMediator(prog, inputs)
	demand := NewMediator(prog, inputs, WithDemandDriven(true))
	want, err := full.Ask(`class -> supplier -*> X`, "Psup")
	if err != nil {
		t.Fatal(err)
	}
	got, err := demand.AskContext(context.Background(), `class -> supplier -*> X`, "Psup")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("demand mediator found %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Name.Equal(want[i].Name) || got[i].Binding.Key() != want[i].Binding.Key() {
			t.Fatalf("answer %d differs", i)
		}
	}
	if s := demand.Stats(); !s.Demand || s.CachedRules == 0 {
		t.Errorf("demand stats: %+v", s)
	}
	// Slicing is reachable from the facade too.
	sl := ComputeSlice(prog, "Psup")
	res, err := RunSlice(context.Background(), prog, inputs, sl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs.Len() == 0 {
		t.Error("facade RunSlice produced no Sup outputs")
	}
}

// A mediator-only option passed to a plain engine run would otherwise
// be silently ignored; the run must surface the misconfiguration as a
// warning instead.
func TestMediatorOnlyOptionWarns(t *testing.T) {
	prog := yatl.MustParse(Rules1And2)
	inputs := workload.BrochureStore(2, 1, 2, 1)
	res, err := Run(prog, inputs, WithDemandDriven(true), WithSources(StaticSource("s", NewStore())))
	if err != nil {
		t.Fatal(err)
	}
	foundDemand, foundSources := false, false
	for _, w := range res.Warnings {
		if strings.Contains(w, "WithDemandDriven") {
			foundDemand = true
		}
		if strings.Contains(w, "WithSources") {
			foundSources = true
		}
	}
	if !foundDemand || !foundSources {
		t.Errorf("warnings = %q, want mentions of WithDemandDriven and WithSources", res.Warnings)
	}
	// The same options through NewMediator warn about nothing: they
	// are consumed before the engine sees them.
	med := NewMediator(prog, inputs, WithDemandDriven(true))
	if _, err := med.Ask(`X`, "Psup"); err != nil {
		t.Fatal(err)
	}
	if s := med.Stats(); !s.Demand {
		t.Errorf("mediator did not consume WithDemandDriven: %+v", s)
	}
}

// The facade end of the fault-tolerant source layer: decorate, attach,
// degrade, inspect.
func TestFacadeFaultTolerantSources(t *testing.T) {
	prog := yatl.MustParse(Rules1And2)
	healthyStore := workload.BrochureStore(3, 1, 2, 9)
	clock := NewFakeSourceClock()
	fault := NewFaultSource("brochures", healthyStore,
		FaultStep{Fail: errors.New("cold start")},
	).WithClock(clock)
	src := SourceWithBreaker(
		SourceWithRetry(fault, RetryOptions{MaxAttempts: 3, Clock: clock}),
		BreakerOptions{Clock: clock})
	med := NewMediator(prog, nil, WithSources(src))
	got, err := med.Ask(`class -> supplier -*> Y`, "Psup")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no answers through the decorated source")
	}
	st := med.Stats()
	if len(st.Sources) != 1 {
		t.Fatalf("Sources = %+v", st.Sources)
	}
	s := st.Sources[0]
	if s.Name != "brochures" || s.Retries != 1 || s.FetchErr != "" || s.Entries == 0 {
		t.Errorf("source status = %+v, want 1 absorbed retry and a healthy fetch", s)
	}
	if stats := SourceStatsOf(src); stats.Attempts != 2 {
		t.Errorf("SourceStatsOf = %+v, want 2 attempts", stats)
	}
}
