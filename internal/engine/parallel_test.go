package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

func TestEffectiveWorkers(t *testing.T) {
	if got := effectiveWorkers(0); got != 1 {
		t.Errorf("effectiveWorkers(0) = %d, want 1", got)
	}
	if got := effectiveWorkers(1); got != 1 {
		t.Errorf("effectiveWorkers(1) = %d, want 1", got)
	}
	if got := effectiveWorkers(4); got != 4 {
		t.Errorf("effectiveWorkers(4) = %d, want 4", got)
	}
	if got := effectiveWorkers(-1); got < 1 {
		t.Errorf("effectiveWorkers(-1) = %d, want >= 1", got)
	}
}

func TestForEachIndexedCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			counts := make([]atomic.Int32, n)
			err := forEachIndexed(context.Background(), workers, n, func(i int) {
				counts[i].Add(1)
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachIndexedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		err := forEachIndexed(ctx, workers, 100, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Errorf("workers=%d: %d tasks ran on a cancelled context", workers, got)
		}
	}
}

// resultFingerprint renders everything observable about a run so
// parallel and sequential executions can be compared byte for byte.
func resultFingerprint(res *Result) string {
	var sb strings.Builder
	sb.WriteString(tree.FormatStore(res.Outputs))
	sb.WriteString("\n--warnings--\n")
	for _, w := range res.Warnings {
		sb.WriteString(w)
		sb.WriteByte('\n')
	}
	sb.WriteString("--unconverted--\n")
	for _, id := range res.Unconverted {
		sb.WriteString(id.Display())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "--stats--\n%+v\n", res.Stats)
	return sb.String()
}

// TestParallelRunByteIdentical runs the paper's SGML→ODMG program on
// the Figure 3 store at several parallelism levels and requires the
// full result — outputs, warnings, unconverted list and stats — to be
// identical to the sequential run.
func TestParallelRunByteIdentical(t *testing.T) {
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := mergeStores(fig3Store(), relationalStore())
	seq, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(seq)
	for _, par := range []int{-1, 2, 4, 8} {
		res, err := Run(prog, inputs, &Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if got := resultFingerprint(res); got != want {
			t.Errorf("parallelism=%d diverges from sequential:\n got:\n%s\nwant:\n%s", par, got, want)
		}
	}
}

// TestParallelWarningsDeterministic uses a program whose external
// function fails on some inputs (producing drop warnings) and checks
// the warning order is reproduced under parallelism.
func TestParallelWarningsDeterministic(t *testing.T) {
	prog := yatl.MustParse(`
program warny
rule W {
  head Pz(X) = z -> Z
  from X = addr -> A
  let Z = zip(A)
}
`)
	inputs := tree.NewStore()
	for i := 1; i <= 12; i++ {
		addr := fmt.Sprintf("street %d, 7500%d Paris", i, i%10)
		if i%3 == 0 {
			addr = fmt.Sprintf("malformed %d", i) // no comma: zip() errors
		}
		inputs.Put(tree.PlainName(fmt.Sprintf("a%d", i)), tree.Sym("addr", tree.Str(addr)))
	}
	seq, err := Run(prog, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Warnings) == 0 {
		t.Fatal("fixture produced no warnings; the test is vacuous")
	}
	par, err := Run(prog, inputs, &Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultFingerprint(par), resultFingerprint(seq); got != want {
		t.Errorf("warning order diverges:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := mergeStores(fig3Store(), relationalStore())
	for _, par := range []int{0, 4} {
		_, err := RunContext(ctx, prog, inputs, &Options{Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism=%d: err = %v, want context.Canceled", par, err)
		}
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("parallelism=%d: error %q does not mention cancellation", par, err)
		}
	}
}

// TestRunCancelledMidRun registers an external function that cancels
// the context from inside the evaluation phase; the engine must stop
// at the next checkpoint and report the cancellation.
func TestRunCancelledMidRun(t *testing.T) {
	for _, par := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := NewRegistry()
		reg.Register(Func{
			Name: "pull_plug", Params: []ParamType{Text}, Result: Text,
			Fn: func(args []tree.Value) (tree.Value, error) {
				cancel()
				return args[0], nil
			},
		})
		prog := yatl.MustParse(`
program doomed
rule D {
  head Pout(X) = out -> V
  from X = in -> D
  let V = pull_plug(D)
}
`)
		inputs := tree.NewStore()
		for i := 1; i <= 6; i++ {
			inputs.Put(tree.PlainName(fmt.Sprintf("i%d", i)), tree.Sym("in", tree.Str("x")))
		}
		_, err := RunContext(ctx, prog, inputs, &Options{Registry: reg, Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism=%d: err = %v, want context.Canceled", par, err)
		}
	}
}

// TestRunDeadline checks the timeout form the mediator uses: a context
// with an already-expired deadline aborts the run.
func TestRunDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	_, err := RunContext(ctx, prog, fig3Store(), &Options{Parallelism: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}
