package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// TestCompiledConcurrentRuns shares one Compiled per program among
// eight goroutines, the way a mediator generation shares its own, for
// every builtin and workload program: each goroutine runs the program
// in full and a slice of every functor, and every output store must be
// byte-identical to a fresh Run's — whole for a full run, restricted to
// the slice's closure for a slice run. A run that wrote into the plans,
// the hierarchy or a memoized slice would show here (and to -race).
func TestCompiledConcurrentRuns(t *testing.T) {
	brochures := workload.BrochureStore(8, 2, 5, 42)
	for _, tc := range []struct {
		name   string
		src    string
		inputs *tree.Store
	}{
		{"sgml2odmg", yatl.SGMLToODMGSource, brochures},
		{"sgml2odmgTyped", yatl.AnnotatedSGMLToODMGSource, brochures},
		{"sgml2odmgPrime", yatl.SGMLToODMGPrimeSource, brochures},
		{"odmg2html", yatl.WebProgramSource, workload.ODMGStore(5, 3, 2, 7)},
		{"selective", workload.SelectiveProgram(6), workload.BrochureStore(6, 2, 5, 11)},
		{"partitioned", workload.PartitionedProgram(4), workload.PartitionedStore(4, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := yatl.MustParse(tc.src)
			fresh, err := Run(prog, tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			// Job 0 is the full run, job i > 0 the slice of functor i-1.
			functors := c.hier.functors
			want := make([]string, 1+len(functors))
			want[0] = tree.FormatStore(fresh.Outputs)
			for i, f := range functors {
				want[1+i] = tree.FormatStore(filterFunctors(fresh.Outputs, closureOf(ComputeSlice(prog, f))))
			}

			const goroutines, rounds = 8, 3
			var wg sync.WaitGroup
			diffs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < rounds*len(want); k++ {
						job := (g + k) % len(want)
						var res *Result
						var err error
						if job == 0 {
							res, err = c.Run(context.Background(), tc.inputs)
						} else {
							sl := c.Slice(functors[job-1])
							if res, err = c.RunSlice(context.Background(), tc.inputs, sl); err == nil {
								res.Outputs = filterFunctors(res.Outputs, closureOf(sl))
							}
						}
						got := fmt.Sprint(err)
						if err == nil {
							got = tree.FormatStore(res.Outputs)
						}
						if got != want[job] {
							diffs <- fmt.Sprintf("goroutine %d, job %d: output differs from a fresh run:\n%s\nwant:\n%s", g, job, got, want[job])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(diffs)
			for d := range diffs {
				t.Error(d)
			}
		})
	}
}

// closureOf is the set of the functors the slice constructs.
func closureOf(sl *Slice) map[string]bool {
	out := map[string]bool{}
	for _, f := range sl.Closure {
		out[f] = true
	}
	return out
}

// TestCompiledSliceMemo: a Compiled hands out one slice per functor
// combination, whatever the order and repeats of the functors, stops
// retaining at its cap without evicting, and computes a NUL-bearing
// combination, which no memo key can spell, afresh each time.
func TestCompiledSliceMemo(t *testing.T) {
	c, err := Compile(yatl.MustParse(workload.SelectiveProgram(4)))
	if err != nil {
		t.Fatal(err)
	}
	one := c.Slice("Pview1")
	if one != c.Slice("Pview1") || c.Slice() != c.Slice() {
		t.Error("a repeated probe computed a new slice")
	}
	if pair := c.Slice("Pview2", "Pview1", "Pview2"); pair != c.Slice("Pview1", "Pview2") || pair.Rules() != 2 {
		t.Errorf("order and repeats changed the two-view slice: %s", pair)
	}
	for i := c.slices.Len(); i < maxSlices+8; i++ {
		c.Slice(fmt.Sprintf("Pextra%d", i))
	}
	if c.slices.Len() != maxSlices {
		t.Errorf("the memo holds %d slices, want the cap %d", c.slices.Len(), maxSlices)
	}
	if past := "Pextra" + fmt.Sprint(maxSlices+8); c.Slice(past) == c.Slice(past) {
		t.Error("a slice past the cap was retained")
	}
	if c.Slice("Pview1") != one {
		t.Error("the cap evicted a retained slice")
	}
	if nul := "Pview1\x00Pview2"; c.Slice(nul) == c.Slice(nul) {
		t.Error("a NUL-bearing functor list was memoized")
	}
}
