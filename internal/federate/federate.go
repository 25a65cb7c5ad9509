// Package federate layers mediators over mediators — the
// Mask-Mediator-Wrapper pattern. A Federation is itself an Asker: it
// shards a virtual target across N child mediators by functor group
// (PlanShards derives each child's closed sub-program with
// engine.ComputeSlice), serves Asks by scatter-gather, and merges the
// shard streams into exactly the order a single-process mediator
// would produce. Children may be in-process mediators or remote
// yatserve instances reached through the HTTP shard Client; every
// child call runs under the source layer's retry/breaker/timeout
// decorators, so a dead child degrades the Ask to partial results
// instead of failing it. Pipelines of programs handed to the planner
// are fused with §4.3 composition before sharding — the intermediate
// model never crosses the wire because it never exists.
package federate

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/compose"
	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// Child is one explicitly configured federation member.
type Child struct {
	// Name identifies the child in stats, traces and errors. Empty
	// defaults to "shard<i>" (or the client's base URL).
	Name string
	// Asker answers the child's share of the target: an in-process
	// *mediator.Mediator, a remote *Client, or any other Asker.
	Asker mediator.Asker
	// Functors are the functor groups routed to this child. Empty
	// means discover them by calling Asker.Functors() at build time.
	Functors []string
}

// Config assembles a Federation.
type Config struct {
	// Programs is the conversion pipeline. One entry is served as-is;
	// several are fused left-to-right with §4.3 composition before
	// sharding. Required unless Children are given.
	Programs []*yatl.Program
	// Shards is the number of in-process children to shard Programs
	// across (clamped to the functor-group count; default 1). Ignored
	// when Children are given.
	Shards int
	// Children are explicit federation members (remote clients, pre-
	// built mediators). When set, Programs is optional and used only
	// for Program() introspection.
	Children []Child
	// Inputs feeds in-process children (may be nil when Options
	// carries WithSources).
	Inputs *tree.Store
	// Options are engine options applied to in-process children
	// (sources, registry, ...). A trace sink configured here
	// also receives the federation's own scatter/fusion events.
	Options []engine.Option
	// Compose tunes the pipeline fusion.
	Compose []compose.ComposeOption
	// Guard tunes the retry/breaker/timeout decorators around child
	// calls; nil means the documented defaults.
	Guard *GuardOptions
}

// fedChild is one child plus its routing and fault-tolerance state.
type fedChild struct {
	name   string
	asker  mediator.Asker
	owned  []string // owned functors, program declaration order
	remote bool
	chain  source.Source // guard chain; breaker state persists here

	asks     atomic.Int64
	failures atomic.Int64
	healthy  atomic.Bool
	lastErr  atomic.Value // string
}

// called records the outcome of one guarded call into the child.
func (c *fedChild) called(err error) {
	c.asks.Add(1)
	if err != nil {
		c.failures.Add(1)
		c.healthy.Store(false)
		c.lastErr.Store(err.Error())
		return
	}
	c.healthy.Store(true)
	c.lastErr.Store("")
}

// Federation shards a virtual target across child Askers and serves
// scatter-gather Asks over them. It implements mediator.Asker, so it
// drops into every seat a *Mediator fits: the serve pool, the tools,
// another federation.
type Federation struct {
	prog     *yatl.Program // fused program; nil for opaque children
	children []*fedChild
	route    map[string]int // functor -> children index
	sink     trace.Sink
}

var _ mediator.Asker = (*Federation)(nil)

// New builds a Federation. With explicit Children it routes across
// them (discovering functor sets where not given); otherwise it fuses
// Programs, plans shards, and spawns demand-driven in-process child
// mediators over each shard's closed sub-program.
func New(cfg Config) (*Federation, error) {
	sink := engine.NewOptions(cfg.Options...).Trace
	f := &Federation{route: map[string]int{}, sink: sink}

	if len(cfg.Programs) > 0 {
		fused, err := FusePipeline(cfg.Programs, sink, cfg.Compose...)
		if err != nil {
			return nil, err
		}
		f.prog = fused
	}

	guard := defaultGuard(cfg.Guard)
	if len(cfg.Children) > 0 {
		for i, c := range cfg.Children {
			name := c.Name
			if name == "" {
				if cl, ok := c.Asker.(*Client); ok {
					name = cl.Name()
				} else {
					name = "shard" + strconv.Itoa(i)
				}
			}
			owned := c.Functors
			if len(owned) == 0 {
				fs, err := c.Asker.Functors()
				if err != nil {
					return nil, &FanoutError{Errs: map[string]error{name: err}}
				}
				owned = fs
			}
			_, remote := c.Asker.(*Client)
			f.addChild(name, c.Asker, owned, remote, guard)
		}
		return f, nil
	}

	if f.prog == nil {
		return nil, errors.New("federate: Config.Programs or Config.Children is required")
	}
	plans := PlanShards(f.prog, cfg.Shards)
	for _, p := range plans {
		// Demand-driven by default (a shard should materialize only
		// what is asked of it); an explicit WithDemandDriven in
		// cfg.Options wins because later options do.
		opts := append([]engine.Option{mediator.WithDemandDriven(true)}, cfg.Options...)
		med := mediator.New(p.Prog, cfg.Inputs, opts...)
		f.addChild("shard"+strconv.Itoa(p.Index), med, p.Functors, false, guard)
	}
	return f, nil
}

// addChild registers one child and claims its functors in the routing
// table. On overlap the first claimant wins: slice soundness makes
// either owner's answers for the group byte-identical, and a
// deterministic owner keeps the scatter plan stable.
func (f *Federation) addChild(name string, asker mediator.Asker, owned []string, remote bool, guard GuardOptions) {
	c := &fedChild{name: name, asker: asker, owned: nil, remote: remote,
		chain: buildGuard(name, guard)}
	c.healthy.Store(true)
	c.lastErr.Store("")
	idx := len(f.children)
	for _, fu := range owned {
		if _, taken := f.route[fu]; taken {
			continue
		}
		f.route[fu] = idx
		c.owned = append(c.owned, fu)
	}
	f.children = append(f.children, c)
}

// Program returns the (fused) program the federation was planned
// from, nil when it routes over opaque children.
func (f *Federation) Program() *yatl.Program { return f.prog }

// Children returns the child names in declaration order.
func (f *Federation) Children() []string {
	out := make([]string, len(f.children))
	for i, c := range f.children {
		out[i] = c.name
	}
	return out
}

// Ask implements Asker.
func (f *Federation) Ask(patternSrc string, functors ...string) ([]mediator.Answer, error) {
	return f.AskContext(nil, patternSrc, functors...)
}

// AskContext scatters the ask to the owning shards and gathers a
// deterministic merge. The pattern is parsed here first: a malformed
// one is refused with the error a mediator returns and reaches no
// child. Routing: explicit functors go to their owners
// (an unknown functor is an UnroutableError); a bare ask fans out to
// every child, each restricted to its owned groups, so no group is
// answered twice. A failed shard — timeout, open breaker, dead
// process — degrades the result to the healthy shards' answers;
// only when every contacted shard fails does the Ask error (a
// FanoutError). The merged order is byte-identical to a single
// mediator over the unsharded program: answers sort by the same
// canonical MergeKey doAsk orders by, and no key collides across
// shards because each functor group is answered by exactly one.
func (f *Federation) AskContext(ctx context.Context, patternSrc string, functors ...string) ([]mediator.Answer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Sent on, every child would refuse a malformed pattern, and their
	// guards would retry it and count it against children that did
	// nothing wrong.
	if _, err := mediator.ParsePattern(patternSrc); err != nil {
		return nil, err
	}
	type target struct {
		c  *fedChild
		fs []string
	}
	var targets []target
	if len(functors) == 0 {
		for _, c := range f.children {
			if len(c.owned) > 0 {
				targets = append(targets, target{c: c, fs: c.owned})
			}
		}
	} else {
		byChild := map[int][]string{}
		seen := map[string]bool{}
		var order []int
		for _, fu := range functors {
			idx, ok := f.route[fu]
			if !ok {
				return nil, &UnroutableError{Functor: fu, Shards: len(f.children)}
			}
			if seen[fu] {
				continue
			}
			seen[fu] = true
			if _, started := byChild[idx]; !started {
				order = append(order, idx)
			}
			byChild[idx] = append(byChild[idx], fu)
		}
		// Contact children in declaration order regardless of the
		// functor order in the request, matching the bare-ask plan.
		sort.Ints(order)
		for _, idx := range order {
			targets = append(targets, target{c: f.children[idx], fs: byChild[idx]})
		}
	}

	results := make([][]mediator.Answer, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			start := time.Now()
			var answers []mediator.Answer
			err := callGuarded(ctx, t.c.chain, func(ctx context.Context) error {
				out, err := t.c.asker.AskContext(ctx, patternSrc, t.fs...)
				if err == nil {
					answers = out
				}
				return err
			})
			if err != nil {
				errs[i] = err
				// A caller that hung up says nothing about the child.
				if ctx.Err() == nil {
					t.c.called(err)
					f.emit(trace.Event{Kind: trace.KindShardDegraded, Phase: trace.PhaseFederate,
						Detail: t.c.name + ": " + err.Error()})
				}
				return
			}
			t.c.called(nil)
			results[i] = answers
			f.emit(trace.Event{Kind: trace.KindShardAsk, Phase: trace.PhaseFederate,
				Detail: t.c.name, Count: len(answers), Duration: time.Since(start)})
		}(i, t)
	}
	wg.Wait()

	failed := map[string]error{}
	var merged []mediator.Answer
	for i, t := range targets {
		if errs[i] != nil {
			failed[t.c.name] = errs[i]
			continue
		}
		merged = append(merged, results[i]...)
	}
	if len(targets) > 0 && len(failed) == len(targets) {
		return nil, &FanoutError{Errs: failed}
	}
	if len(merged) > 1 && len(targets) > 1 {
		// Precompute keys once: MergeKey allocates, and the comparator
		// runs O(n log n) times.
		keys := make([]string, len(merged))
		for i := range merged {
			keys[i] = merged[i].MergeKey()
		}
		idx := make([]int, len(merged))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		out := make([]mediator.Answer, len(merged))
		for i, j := range idx {
			out[i] = merged[j]
		}
		merged = out
	}
	return merged, nil
}

// Functors gathers the union of the children's functor sets, sorted.
// Like Ask, a failing child degrades the answer to the healthy
// shards' functors; only total failure errors.
func (f *Federation) Functors() ([]string, error) {
	failed := map[string]error{}
	seen := map[string]bool{}
	contacted := 0
	for _, c := range f.children {
		contacted++
		var fs []string
		err := callGuarded(nil, c.chain, func(ctx context.Context) error {
			out, err := c.asker.Functors()
			if err == nil {
				fs = out
			}
			return err
		})
		c.called(err)
		if err != nil {
			failed[c.name] = err
			continue
		}
		for _, fu := range fs {
			seen[fu] = true
		}
	}
	if contacted > 0 && len(failed) == contacted {
		return nil, &FanoutError{Errs: failed}
	}
	out := make([]string, 0, len(seen))
	for fu := range seen {
		out = append(out, fu)
	}
	sort.Strings(out)
	return out, nil
}

// Stats folds the children's snapshots through mediator.Aggregate and
// attaches per-shard health. Remote children answer from their own
// GET /stats; a child whose stats call fails contributes only its
// shard-status row.
func (f *Federation) Stats() mediator.Stats {
	var views []mediator.Stats
	shards := make([]mediator.ShardStatus, len(f.children))
	for i, c := range f.children {
		views = append(views, c.asker.Stats())
		st := mediator.ShardStatus{
			Name:     c.name,
			Remote:   c.remote,
			Functors: len(c.owned),
			Asks:     c.asks.Load(),
			Failures: c.failures.Load(),
			Healthy:  c.healthy.Load(),
		}
		if s, ok := c.lastErr.Load().(string); ok {
			st.LastErr = s
		}
		st.Breaker = source.StatsOf(c.chain).BreakerState
		shards[i] = st
	}
	agg := mediator.Aggregate(views...)
	agg.Shards = shards
	return agg
}

// Generation is the slowest child's generation — the number every
// child reaches once a reload settles. Children that cannot report
// one count as generation 1 (they never reload).
func (f *Federation) Generation() int64 {
	gen := int64(0)
	for _, c := range f.children {
		var g int64 = 1
		if gn, ok := c.asker.(interface{ Generation() int64 }); ok {
			g = gn.Generation()
		}
		if gen == 0 || g < gen {
			gen = g
		}
	}
	if gen == 0 {
		gen = 1
	}
	return gen
}

func (f *Federation) emit(e trace.Event) {
	if f.sink != nil {
		f.sink.Emit(e)
	}
}
