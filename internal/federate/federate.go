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
// instead of failing it. A federation serving /ask over remote
// children memoizes each reply against digests of the children's
// replies (AskReply): a repeated ask whose children answer byte for
// byte as before, or answer 304 to the write epoch they tagged their
// reply with, is not merged or rendered again, and while every child it
// needs holds the parent to a read lease, no child is asked at all.
// Pipelines of programs handed to the planner are fused with §4.3
// composition before sharding — the intermediate model never crosses
// the wire because it never exists.
package federate

import (
	"context"
	"crypto/sha256"
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
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
	// (sources, registry, ...). A trace sink configured here receives
	// New's compose-fusion events; an ask's events, the shard asks
	// among them, go to the sink its context carries (trace.WithSink).
	Options []engine.Option
	// Guard tunes the retry/breaker/timeout decorators around child
	// calls; nil means the documented defaults.
	Guard *GuardOptions
}

// fedChild is one child plus its routing and fault-tolerance state.
type fedChild struct {
	name  string
	asker mediator.Asker
	owned []string // owned functors, program declaration order
	// client is asker when it is a remote *Client, nil for an in-process
	// child.
	client *Client
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
	replies  *replyMemo     // AskReply's memo
	// How AskReply's memo answered: replays of an entry, those of them
	// that asked no child, and the children's 304s.
	memoReplays, leasedReplays, notModified atomic.Int64

	// replayChecksFirstOnly is test instrumentation, unset in the
	// library: the unsound memo the reply memo tests must catch, which
	// replays an entry when only the first target's reply is the one it
	// saw.
	replayChecksFirstOnly bool
}

var _ mediator.Asker = (*Federation)(nil)

// New builds a Federation. With explicit Children it routes across
// them (discovering functor sets where not given); otherwise it fuses
// Programs, plans shards, and spawns demand-driven in-process child
// mediators over each shard's closed sub-program.
func New(cfg Config) (*Federation, error) {
	f := &Federation{route: map[string]int{}, replies: newReplyMemo()}

	if len(cfg.Programs) > 0 {
		fused, err := FusePipeline(cfg.Programs, engine.NewOptions(cfg.Options...).Trace)
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
			f.addChild(name, c.Asker, owned, guard)
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
		f.addChild("shard"+strconv.Itoa(p.Index), med, p.Functors, guard)
	}
	return f, nil
}

// addChild registers one child and claims its functors in the routing
// table. On overlap the first claimant wins: slice soundness makes
// either owner's answers for the group byte-identical, and a
// deterministic owner keeps the scatter plan stable.
func (f *Federation) addChild(name string, asker mediator.Asker, owned []string, guard GuardOptions) {
	c := &fedChild{name: name, asker: asker, chain: buildGuard(name, guard)}
	c.client, _ = asker.(*Client)
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
	targets, err := f.plan(patternSrc, functors)
	if err != nil {
		return nil, err
	}
	answers, _, err := f.merge(targets, f.gather(ctx, patternSrc, targets, wire.DecodeAskResponse, nil))
	return answers, err
}

// AskReply is AskContext for a caller that sends the merged answers on
// rather than reading them (serve's /ask): render turns them into the
// reply AskReply returns, with the generation that answered — the
// oldest among the children's replies merged, not among the children
// (an in-process child's is its Generation() once it has answered). A
// remote child's reply is read by wire.RelayAskResponse, so its
// answers reach render with the members and merge key the child wrote
// and no trees: only rendering may read them.
//
// When every child asked is a remote *Client, the reply is memoized
// against the SHA-256 digest of each child's reply, and the write epoch
// the child tagged it with. An ask (pattern, functors as given, keyed)
// whose children all answer byte for byte as they did for the memoized
// reply gets that reply back, with no child reply read, merged or
// rendered. Once an ask has been answered so, the next one is
// conditional: each child is sent its epoch (the wire package's
// conditional /ask) and answers 304 when it is still at that epoch,
// which stands for those bytes. When a 304 came
// but some other child's reply moved or failed, each child that
// answered 304 is asked again without a validator, as the memo keeps no
// child bytes, and the asks after it are unconditional until one is
// answered from the memo again: a child that is down or keeps moving
// costs the others one round trip per ask, not two. Every such ask
// requests a read lease (the wire package's lease contract), and while
// each child's lease holds at the write epoch under which the entry
// last saw that child's reply, the entry is replayed with no child
// asked; a child that goes down is therefore noticed only once its
// lease lapses. As with
// Mediator.AskReply, a caller must render each form the same way every
// time; the memo keeps a copy of what render returns, and a reply that
// came from the memo is shared and must not be modified. A reply
// degraded by a failed child is neither memoized nor served from the
// memo, and any bytes the memo has not seen are read and checked in
// full.
func (f *Federation) AskReply(ctx context.Context, patternSrc string, functors []string, keyed bool, render func(generation int64, answers []mediator.Answer) []byte) (body []byte, err error) {
	// seen is the memo's entry for the ask — an empty one for an ask it
	// has not memoized — and nil when the ask is not memoized at all. A
	// memoized ask was planned when its entry was stored, and routes do
	// not change after New: its targets are the entry's. Only a miss is
	// planned; a malformed or unroutable ask never has an entry.
	var seen *replyEntry
	var targets []target
	key, listed := replyKeyOf(patternSrc, functors, keyed)
	if listed {
		seen = f.replies.Load(key)
	}
	if seen != nil {
		targets = seen.targets
	} else {
		if targets, err = f.plan(patternSrc, functors); err != nil {
			return nil, err
		}
		if listed && memoizable(targets) && !f.replies.Full() {
			seen = &replyEntry{targets: targets}
		}
	}
	if seen != nil && f.leased(seen, targets) {
		f.memoReplays.Add(1)
		f.leasedReplays.Add(1)
		trace.Emit(ctx, trace.Event{Kind: trace.KindMemoHit, Phase: trace.PhaseFederate})
		seen.replay()
		return seen.body, nil
	}
	replies := f.gather(ctx, patternSrc, targets, wire.RelayAskResponse, seen)
	for _, r := range replies {
		if r.err == nil && r.same && r.raw == nil {
			f.notModified.Add(1)
		}
	}
	if seen != nil && f.replayable(replies) {
		for i := range replies {
			if r := &replies[i]; r.raw != nil {
				r.raw.release()
			} else {
				f.report(ctx, targets[i], r) // a 304
			}
		}
		f.memoReplays.Add(1)
		trace.Emit(ctx, trace.Event{Kind: trace.KindMemoHit, Phase: trace.PhaseFederate})
		seen.replay()
		f.restamp(key, seen, replies)
		return seen.body, nil
	}
	if seen != nil && seen.replayed.Load() {
		seen.replayed.Store(false)
	}
	var again []int // the targets that answered 304
	for i := range replies {
		r := &replies[i]
		switch {
		case r.raw != nil:
			// The bytes the memo saw matched, another child's did not: read
			// them now. They were read once already, so this cannot fail.
			r.gen, r.answers, r.err = targets[i].c.client.readAsk(r.raw.b, wire.RelayAskResponse)
			r.raw.release()
		case r.same:
			again = append(again, i)
		}
	}
	if len(again) > 0 {
		// A 304 stands for bytes the memo does not keep: ask for them. The
		// 304 went unreported, so the child's one report is this ask's.
		sub := make([]target, len(again))
		for j, i := range again {
			sub[j] = targets[i]
		}
		for j, r := range f.gather(ctx, patternSrc, sub, wire.RelayAskResponse, &replyEntry{}) {
			replies[again[j]] = r
		}
	}
	complete := seen != nil
	for _, r := range replies {
		complete = complete && r.err == nil
	}
	answers, generation, err := f.merge(targets, replies)
	if err != nil {
		return nil, err
	}
	body = render(generation, answers)
	if !complete {
		return body, nil
	}
	// Exact size, and never render's buffer, which may be pooled.
	e := &replyEntry{targets: targets, shards: make([]shardSeen, len(replies)), body: append(make([]byte, 0, len(body)), body...)}
	for i, r := range replies {
		e.shards[i] = r.seen
	}
	if f.replies.Update(key, func(*replyEntry) *replyEntry { return e }) == nil {
		// The memo is at a bound: drop the entry this one would have
		// replaced, which holds bytes for replies that have moved on.
		f.replies.Update(key, func(*replyEntry) *replyEntry { return nil })
	}
	return body, nil
}

// target is one child's share of an ask.
type target struct {
	c  *fedChild
	fs []string
}

// plan checks the pattern and routes an ask to its targets.
func (f *Federation) plan(patternSrc string, functors []string) ([]target, error) {
	// Sent on, every child would refuse a malformed pattern, and their
	// guards would retry it and count it against children that did
	// nothing wrong.
	if _, err := mediator.ParsePattern(patternSrc); err != nil {
		return nil, err
	}
	var targets []target
	if len(functors) == 0 {
		for _, c := range f.children {
			if len(c.owned) > 0 {
				targets = append(targets, target{c: c, fs: c.owned})
			}
		}
		return targets, nil
	}
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
	return targets, nil
}

// shardReply is what one target answered.
type shardReply struct {
	answers []mediator.Answer
	gen     int64
	err     error
	// seen is the reply as a memo entry records it, set when the gather
	// digests. same says the reply is the one the memo saw: the child
	// answered 304 to its digest, or sent the very bytes, which raw then
	// holds unread.
	seen shardSeen
	same bool
	raw  *replyBuf
	took time.Duration // how long the ask took
}

// gather asks every target at once, under its child's guard chain, and
// reads a remote child's reply with decode. With seen non-nil (every
// target remote) it digests each reply and leaves unread one whose
// digest is seen's for its target; when seen was replayed by the last
// ask that found it, it asks each target conditionally on the epoch
// seen records for it.
// The last target is asked on the calling goroutine, which would
// otherwise only wait.
func (f *Federation) gather(ctx context.Context, patternSrc string, targets []target,
	decode func([]byte) (int64, []mediator.Answer, error), seen *replyEntry) []shardReply {
	if ctx == nil {
		ctx = context.Background()
	}
	replies := make([]shardReply, len(targets))
	conditional := seen != nil && seen.replayed.Load()
	var wg sync.WaitGroup
	for i, t := range targets {
		var want *shardSeen
		if seen != nil {
			want = seen.shard(i)
		}
		if i == len(targets)-1 {
			f.askTarget(ctx, patternSrc, t, decode, seen != nil, conditional, want, &replies[i])
			break
		}
		wg.Add(1)
		go func(r *shardReply, t target, want *shardSeen) {
			defer wg.Done()
			f.askTarget(ctx, patternSrc, t, decode, seen != nil, conditional, want, r)
		}(&replies[i], t, want)
	}
	wg.Wait()
	return replies
}

// askTarget is gather's ask of one target into r: digested against want
// when digest is set, and conditional on it when conditional is too,
// else read with decode. It reports the ask to the child's health and
// the trace, but for a 304, which AskReply reports once it knows
// whether the child is asked again.
func (f *Federation) askTarget(ctx context.Context, patternSrc string, t target,
	decode func([]byte) (int64, []mediator.Answer, error), digest, conditional bool, want *shardSeen, r *shardReply) {
	start := time.Now()
	r.err = callGuarded(ctx, t.c.chain, func(ctx context.Context) error {
		if digest {
			return t.c.askDigest(ctx, patternSrc, t.fs, want, conditional, r)
		}
		var err error
		r.answers, r.gen, err = t.c.ask(ctx, patternSrc, t.fs, decode)
		return err
	})
	r.took = time.Since(start)
	if r.err == nil && r.same && r.raw == nil {
		return
	}
	f.report(ctx, t, r)
}

// report records a target's reply: against its child's health, and as
// a shard-ask event, or a shard-degraded one when the ask failed.
func (f *Federation) report(ctx context.Context, t target, r *shardReply) {
	if r.err != nil {
		// A caller that hung up says nothing about the child.
		if ctx.Err() == nil {
			t.c.called(r.err)
			trace.Emit(ctx, trace.Event{Kind: trace.KindShardDegraded, Phase: trace.PhaseFederate,
				Detail: t.c.name + ": " + r.err.Error()})
		}
		return
	}
	t.c.called(nil)
	count := len(r.answers)
	if r.same {
		count = r.seen.count
	}
	trace.Emit(ctx, trace.Event{Kind: trace.KindShardAsk, Phase: trace.PhaseFederate,
		Detail: t.c.name, Count: count, Duration: r.took})
}

// merge orders the targets' answers as one mediator would and returns
// them with the oldest generation among the replies merged. A failed
// target degrades the merge; all of them failing is a FanoutError.
func (f *Federation) merge(targets []target, replies []shardReply) ([]mediator.Answer, int64, error) {
	failed := map[string]error{}
	var (
		merged     []mediator.Answer
		generation int64
	)
	for i, r := range replies {
		if r.err != nil {
			failed[targets[i].c.name] = r.err
			continue
		}
		merged = append(merged, r.answers...)
		if generation == 0 || r.gen < generation {
			generation = r.gen
		}
	}
	if len(targets) > 0 && len(failed) == len(targets) {
		return nil, 0, &FanoutError{Errs: failed}
	}
	if generation == 0 {
		// No child was asked.
		generation = f.Generation()
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
	return merged, generation, nil
}

// ask asks the child for its share of an ask, and says which generation
// answered: a remote child's reply names it, an in-process child
// reports its own once it has answered. decode reads a remote child's
// reply.
func (c *fedChild) ask(ctx context.Context, patternSrc string, functors []string,
	decode func([]byte) (int64, []mediator.Answer, error)) ([]mediator.Answer, int64, error) {
	if c.client != nil {
		generation, answers, err := c.client.ask(ctx, patternSrc, functors, decode)
		return answers, generation, err
	}
	answers, err := c.asker.AskContext(ctx, patternSrc, functors...)
	return answers, generationOf(c.asker), err
}

// askDigest is a remote child's ask for a memoized AskReply, which
// requests a read lease. A reply whose digest is want's, kept unread in
// r.raw, is the reply want recorded: its generation and count stand for
// it, and when the reply was tagged, r.seen takes the tag's epoch. With
// conditional set the ask names want's epoch, and a 304 stands for that
// reply as well. Any other reply is digested into r.seen, with the epoch
// it was tagged with, and relayed. Digesting inside the guarded call
// means a reply that fails to read is retried and counted against the
// child as ever.
func (c *fedChild) askDigest(ctx context.Context, patternSrc string, functors []string, want *shardSeen, conditional bool, r *shardReply) error {
	var tag wire.Epoch
	if want != nil && conditional {
		tag = want.epoch
	}
	reply, epoch, err := c.client.fetchAsk(ctx, patternSrc, functors, tag, true)
	if err != nil {
		return err
	}
	if reply != nil {
		r.seen.sum = sha256.Sum256(reply.b)
	}
	if want != nil && (reply == nil || r.seen.sum == want.sum) {
		r.seen, r.same, r.raw = *want, true, reply
		if epoch != (wire.Epoch{}) {
			r.seen.epoch = epoch
		}
		c.client.gen.Store(want.gen)
		return nil
	}
	r.gen, r.answers, err = c.client.readAsk(reply.b, wire.RelayAskResponse)
	reply.release()
	r.seen.gen, r.seen.count, r.seen.epoch = r.gen, len(r.answers), epoch
	return err
}

// leased says whether entry e may be replayed with no child asked:
// every target's client holds an unexpired lease at the epoch under
// which e last saw that target's reply. The child granted each lease no
// earlier than the client sent its request, and applies no write until
// the lease has expired on its own clock, so until then its reply is
// still the one e saw.
func (f *Federation) leased(e *replyEntry, targets []target) bool {
	if len(e.shards) != len(targets) {
		return false
	}
	now := time.Now()
	for i, t := range targets {
		if !t.c.client.holds(e.shards[i].epoch, now) {
			return false
		}
	}
	return true
}

// restamp stores a successor of the memo's entry seen whose targets
// carry the epochs the replies replayed came under, when some reply
// was tagged with an epoch other than the one seen records.
func (f *Federation) restamp(key replyKey, seen *replyEntry, replies []shardReply) {
	var next *replyEntry
	for i, r := range replies {
		if r.seen.epoch == (wire.Epoch{}) || r.seen.epoch == seen.shards[i].epoch {
			continue
		}
		if next == nil {
			next = &replyEntry{targets: seen.targets, shards: slices.Clone(seen.shards), body: seen.body}
			next.replayed.Store(true)
		}
		next.shards[i].epoch = r.seen.epoch
	}
	if next != nil {
		f.replies.Update(key, func(old *replyEntry) *replyEntry {
			if old != seen {
				return old
			}
			return next
		})
	}
}

// replayable says whether the gathered replies are those the memo
// entry saw: every target answered, each with a 304 or the very bytes.
func (f *Federation) replayable(replies []shardReply) bool {
	for i, r := range replies {
		if r.err != nil || !r.same && !(i > 0 && f.replayChecksFirstOnly) {
			return false
		}
	}
	return true
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
			Remote:   c.client != nil,
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
	agg.MemoEntries += f.replies.Len()
	agg.MemoBytes += f.replies.Bytes()
	agg.MemoReplays += f.memoReplays.Load()
	agg.LeasedReplays += f.leasedReplays.Load()
	agg.NotModified += f.notModified.Load()
	return agg
}

// Generation is the slowest child's generation — the number every
// child reaches once a reload settles. Children that cannot report
// one count as generation 1 (they never reload).
func (f *Federation) Generation() int64 {
	gen := int64(0)
	for _, c := range f.children {
		if g := generationOf(c.asker); gen == 0 || g < gen {
			gen = g
		}
	}
	if gen == 0 {
		gen = 1
	}
	return gen
}

// generationOf is an asker's generation, 1 for one that cannot report
// any.
func generationOf(a mediator.Asker) int64 {
	if gn, ok := a.(interface{ Generation() int64 }); ok {
		return gn.Generation()
	}
	return 1
}
