package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"yat/internal/tree"
	"yat/internal/yatl"
)

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	inputs := mergeStores(fig3Store(), relationalStore())
	_, err := RunContext(ctx, prog, inputs)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error %q does not mention cancellation", err)
	}
}

// TestRunCancelledMidRun registers an external function that cancels
// the context from inside the evaluation phase; the engine must stop
// at the next checkpoint and report the cancellation.
func TestRunCancelledMidRun(t *testing.T) {
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
	_, err := RunContext(ctx, prog, inputs, WithRegistry(reg))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunDeadline checks the timeout form the mediator uses: a context
// with an already-expired deadline aborts the run.
func TestRunDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	prog := yatl.MustParse(yatl.SGMLToODMGSource)
	_, err := RunContext(ctx, prog, fig3Store())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}
