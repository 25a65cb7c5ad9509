// Package mediator implements the mediator-side querying the paper
// leaves as future work (§1: "a complementary goal is to be able to
// query it without fully materializing it"; §5: YAT "can serve as the
// basis for a mediator/wrapper system"). A Mediator wraps a
// conversion program and its sources and answers pattern queries over
// the *virtual* target representation.
//
// Materialization is lazy and memoized: the conversion runs once, on
// the first query, and its outputs are shared by all later queries.
// When the query only concerns some Skolem functors, Ask restricts
// matching to those outputs. Composition (§4.3) slots in naturally: a
// mediator over `Compose(prg1, prg2)` answers queries over M3 against
// M1 sources with no intermediate M2 store at all.
//
// With WithDemandDriven the mediator goes further and pushes the
// query into the engine: an Ask restricted to some functors computes
// the dependency-closed rule slice for those functors
// (engine.Compiled.Slice), runs only that slice, and caches the
// materialized outputs per functor group so overlapping slices reuse
// work.
// Every slice run of one cache generation reads the one input snapshot
// the generation pinned (inputs.go); RefreshSource diffs against it and
// recomputes only the cached functor groups whose rules the changed
// entries can feed (delta.go).
//
// A Mediator is safe for concurrent use: a production mediator serves
// many clients at once, so concurrent Ask/Get/Functors calls share a
// single materialization (guarded by sync.Once, or — demand mode — by
// the generation lock a miss runs under) and then match against a
// consistent snapshot without further locking. A demand-mode hit takes
// no lock at all: the program state and the cache's view are both
// published behind atomic pointers.
package mediator

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/engine"
	"yat/internal/memo"
	"yat/internal/pattern"
	"yat/internal/snapshot"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// WithDemandDriven switches the mediator to demand-driven evaluation:
// instead of materializing the whole target on the first query, each
// Ask runs only the rule slice its functors need and caches the
// results per functor group. It is an engine.Option so it can travel in the
// same option list as engine configuration; passed to engine.Run
// directly it is a no-op.
func WithDemandDriven(on bool) engine.Option { return demandOption(on) }

type demandOption bool

// Apply implements engine.Option. The option configures the mediator,
// not the engine, so it writes nothing.
func (demandOption) Apply(*engine.Options) {}

// MediatorOnly marks the option as foreign to the engine, so a plain
// engine.Run that receives it can warn instead of silently ignoring
// it.
func (demandOption) MediatorOnly() string { return "WithDemandDriven" }

// WithSources replaces the mediator's pre-materialized input store
// with live sources: on (re)materialization the mediator fetches every
// source concurrently and merges the snapshots, in declaration order,
// into the engine's input store. A failed source degrades the answer
// instead of failing it — its data is simply absent, its error
// surfaces in Stats.Sources and as a source-fetch trace event — unless
// every source fails, which fails the query with a FetchError.
//
// Like WithDemandDriven it is an engine.Option only so it can travel
// in the same option list; passed to a plain engine.Run it is reported
// in Result.Warnings.
func WithSources(srcs ...source.Source) engine.Option { return sourcesOption(srcs) }

type sourcesOption []source.Source

// Apply implements engine.Option (the option configures the mediator).
func (sourcesOption) Apply(*engine.Options) {}

// MediatorOnly marks the option as foreign to the engine.
func (sourcesOption) MediatorOnly() string { return "WithSources" }

// FetchError reports the sources whose failed fetch stopped an
// operation: a materialization when every configured source failed, a
// RefreshSource when the refreshed one did. Per-source errors are keyed
// by source name.
type FetchError struct {
	Errs map[string]error
}

func (e *FetchError) Error() string {
	names := make([]string, 0, len(e.Errs))
	for n := range e.Errs {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s: %v", n, e.Errs[n])
	}
	return "mediator: source fetch failed: " + strings.Join(parts, "; ")
}

// NotFoundError reports a RefreshSource aimed at a name no configured
// source carries.
type NotFoundError struct {
	Name string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("mediator: no source named %q", e.Name)
}

// generation is one materialization lifetime: Invalidate swaps in a
// fresh generation, so a query racing an invalidation keeps a
// consistent view instead of observing a half-cleared cache.
type generation struct {
	once   sync.Once
	done   atomic.Bool
	result *engine.Result
	err    error
}

func (g *generation) materialize(ctx context.Context, m *Mediator, st *progState) (*engine.Result, error) {
	g.once.Do(func() {
		snap, err := m.fetch(ctx)
		if err != nil {
			g.err = err
			g.done.Store(true)
			return
		}
		g.result, g.err = st.comp.Run(ctx, snap.store())
		g.done.Store(true)
	})
	return g.result, g.err
}

// progState is one program lifetime: the compiled program plus the
// materialization state built over it, stamped with a generation
// number. Invalidate and Reload swap in a fresh progState; every query
// snapshots exactly one and works against it throughout, so a query
// racing a reload observes the old program or the new one in its
// entirety — never a mixed answer.
type progState struct {
	// comp is the program compiled under the mediator's options: every
	// run, slice and refresh goes through it. Invalidate and Restore
	// share it; Reload compiles the new program.
	comp *engine.Compiled
	gen  *generation
	// dgen is the demand-driven cache, nil unless WithDemandDriven.
	dgen *demandGen
	// progHash and optsHash identify the program text and the
	// result-affecting engine options (registry surface included) this
	// state computes under — the same canonical hashes the snapshot
	// store keys durable generations by. Reload recomputes both: the
	// options value is fixed per mediator, but the registry behind it
	// is mutable, and cached outputs must not survive a surface change
	// that identical rule text would now evaluate differently under.
	progHash, optsHash string
	num                int64
}

// demandGen is one demand-driven cache lifetime: the demand cache
// (cache.go) plus the bookkeeping of the slice runs that filled it.
// Invalidate swaps in a fresh one, so a query racing an invalidation
// keeps a consistent view; source refreshes instead publish new cache
// views under the generation lock.
type demandGen struct {
	// mu serializes the writers — a miss's slice run, a refresh, the
	// run ledger — and guards pin; it is held across a slice run, so
	// concurrent asks missing the same group share one. Readers of the
	// cache and the ledger never take it.
	mu    sync.Mutex
	cache *demandCache
	// ledger is the published run bookkeeping; never nil.
	ledger atomic.Pointer[runLedger]
	// pin is the input snapshot (inputs.go) every cached group was
	// computed from: the generation's first successful fetch (nil until
	// then), advanced only by a RefreshSource the cache has absorbed.
	pin *inputSnap
	// restored marks a generation warm-started from a snapshot rather
	// than computed by this process (surfaced in Stats).
	restored bool
	// superseded marks a generation a Reload has cloned (reload.go): a
	// refresh that locks it afterwards moves on to the clone. Under mu.
	superseded bool
}

// runLedger is the bookkeeping of a generation's slice runs, immutable
// once published.
type runLedger struct {
	// stats accumulates engine statistics across slice runs.
	// Overlapping slices re-run shared dependencies, so the totals
	// measure work performed, not distinct outputs.
	stats engine.Stats
	// runs counts engine slice executions.
	runs int64
	// err is the error of the most recent slice run, nil after a
	// success. Unlike the full-mode generation, a failed slice run is
	// not memoized: the next query retries.
	err error
}

func newDemandGen(ledger runLedger) *demandGen {
	g := &demandGen{cache: newDemandCache()}
	g.ledger.Store(&ledger)
	return g
}

// ran accounts for one successful engine slice run. Under g.mu.
func (g *demandGen) ran(s engine.Stats) {
	l := *g.ledger.Load()
	l.runs++
	l.stats.Add(s)
	l.err = nil
	g.ledger.Store(&l)
}

// failed records a failed slice run (or the fetch before it). Under g.mu.
func (g *demandGen) failed(err error) {
	l := *g.ledger.Load()
	l.err = err
	g.ledger.Store(&l)
}

// Mediator answers queries over the virtual target of a conversion.
type Mediator struct {
	inputs *tree.Store
	// eng is the engine options every generation compiles under.
	eng    []engine.Option
	demand bool

	// sources is the fault-tolerant source layer (WithSources); when
	// non-empty, fetch (inputs.go) merges these over inputs. latest is
	// the outcome of the most recent fetch, for Stats.
	sources []source.Source
	latest  atomic.Pointer[inputSnap]

	// mu serializes the writers of cur (Invalidate, Reload, Restore)
	// and guards lastGood.
	mu sync.Mutex
	// cur is the current program state; queries snapshot it once,
	// without a lock.
	cur atomic.Pointer[progState]
	// lastGood retains the stats of the most recent successful
	// materialization so they stay readable after Invalidate until
	// the next generation materializes.
	lastGood    engine.Stats
	hasLastGood bool

	// Query counters (atomics: Ask runs concurrently).
	asks      atomic.Int64
	cacheHits atomic.Int64
	memoHits  atomic.Int64
	cacheMiss atomic.Int64
	askNanos  atomic.Int64

	// Incremental-refresh counters (see Stats.DeltaRuns et al.).
	deltaRuns      atomic.Int64
	deltaFallbacks atomic.Int64
	patchedRules   atomic.Int64

	// Test instrumentation, unset in the library: beforeRefreshLock runs
	// each time a refresh is about to lock its generation,
	// refreshCommitsOneGroup is the unsound refresh the generated refresh
	// test must catch — a re-run that commits only its first group — and
	// reloadKeepsCompiled the unsound Reload its mutation test must catch,
	// one that keeps running the old program.
	beforeRefreshLock      func()
	refreshCommitsOneGroup bool
	reloadKeepsCompiled    bool
}

// New returns a mediator over the program, compiled, and sources;
// nothing runs until the first query. WithDemandDriven selects the
// evaluation strategy and WithSources the sources; the other options
// configure the engine runs. An ask or refresh is traced through its
// context (trace.WithSink): its memo, cache, fetch and delta events and
// its engine runs go to the sink the context carries.
func New(prog *yatl.Program, inputs *tree.Store, opts ...engine.Option) *Mediator {
	m := &Mediator{inputs: inputs}
	for _, o := range opts {
		switch o := o.(type) {
		case demandOption:
			m.demand = bool(o)
		case sourcesOption:
			m.sources = append(m.sources, o...)
		default:
			m.eng = append(m.eng, o)
		}
	}
	st := m.compile(prog)
	st.num = 1
	if m.demand {
		st.dgen = newDemandGen(runLedger{})
	}
	m.cur.Store(st)
	return m
}

// compile compiles the program under the mediator's engine options
// into a fresh program state, its hashes computed.
func (m *Mediator) compile(prog *yatl.Program) *progState {
	comp, _ := engine.Compile(prog, m.eng...)
	return &progState{comp: comp, gen: &generation{},
		progHash: snapshot.HashProgram(prog), optsHash: snapshot.HashOptions(comp.Options())}
}

// state snapshots the current program state. Everything a query does
// afterwards — slicing, materializing, matching — works against this
// one snapshot, which is what makes Invalidate and Reload atomic from
// the query's point of view.
func (m *Mediator) state() *progState { return m.cur.Load() }

// Program returns the program the mediator currently serves (the one
// installed by the constructor or the most recent Reload).
func (m *Mediator) Program() *yatl.Program { return m.state().comp.Program() }

// Generation returns the current program-state generation number. It
// starts at 1 and increments on every Invalidate and Reload; two asks
// reporting the same generation were answered by the same program and
// cache lifetime.
func (m *Mediator) Generation() int64 { return m.state().num }

// materialize runs the conversion once per generation; concurrent
// callers block on the same sync.Once and share the outcome. The
// boolean reports whether the generation was already materialized
// when the caller arrived (a cache hit for Stats accounting).
func (m *Mediator) materialize(ctx context.Context, st *progState) (*engine.Result, bool, error) {
	g := st.gen
	warm := g.done.Load()
	res, err := g.materialize(ctx, m, st)
	if err == nil && !warm {
		m.mu.Lock()
		// Only credit the generation still current: a stale run
		// finishing after an Invalidate must not overwrite the stats
		// of a newer materialization.
		if st == m.cur.Load() || !m.hasLastGood {
			m.lastGood = res.Stats
			m.hasLastGood = true
		}
		m.mu.Unlock()
	}
	return res, warm, err
}

// Asker is anything that can answer pattern queries over a virtual
// target: a local *Mediator, a remote shard client, or a federation
// router. It is the narrow waist of the query surface — the serve
// pool, the federation's scatter-gather and the tools all speak it,
// so the three implementations are interchangeable.
type Asker interface {
	// Ask matches a pattern (YATL concrete syntax) against the target.
	Ask(patternSrc string, functors ...string) ([]Answer, error)
	// AskContext is Ask under a cancellation context.
	AskContext(ctx context.Context, patternSrc string, functors ...string) ([]Answer, error)
	// Functors lists the Skolem functors the target mints, sorted.
	Functors() ([]string, error)
	// Stats snapshots the implementation's counters.
	Stats() Stats
}

var _ Asker = (*Mediator)(nil)

// Answer is one query result: the identity of the target object and
// the variable bindings of the match.
type Answer struct {
	Name    tree.Name
	Binding engine.Binding
	// wire holds the forms the answer's remote producer rendered, nil for
	// every locally produced answer. One pointer, not the forms inline:
	// every cached and memoized answer pays for this struct's size
	// (56 bytes so), and only relayed ones have anything to keep.
	wire *WireForms
}

// WireForms are what a remote producer wrote for one answer, kept so
// that a federation parent merges in the child's exact order and
// relays the child's bytes instead of rendering the trees again.
type WireForms struct {
	// Key is the producer's MergeKey, "" when its reply carried none.
	Key string
	// Members is the answer's `"name":…,"binding":{…}` JSON members
	// exactly as wire.AppendAskResponse writes them for the answer's Name
	// and Binding, or "" when the producer wrote them any other way.
	Members string
}

// RelayedAnswer builds the answer a decoder of the ask wire format
// read: the parsed name and binding plus the producer's own forms of
// them, which the answer shares (a decoder hands out one slab of them
// per reply; neither may change afterwards). It is the only way to set
// those forms: Members must be byte for byte what wire.AppendAskResponse
// renders for name and binding, which only a decoder that checked them
// (package wire) can promise; leave it "" otherwise. A decoder that
// relays an answer without parsing it passes a zero name and a nil
// binding: such an answer is fit only to be merged by its Key and
// rendered by wire.AppendAskResponse.
func RelayedAnswer(name tree.Name, binding engine.Binding, forms *WireForms) Answer {
	a := Answer{Name: name, Binding: binding}
	if forms != nil && (forms.Key != "" || forms.Members != "") {
		a.wire = forms
	}
	return a
}

// WireMembers is the answer's `"name":…,"binding":{…}` members as its
// remote producer rendered them, "" for an answer that must be
// rendered from Name and Binding.
func (a *Answer) WireMembers() string {
	if a.wire == nil {
		return ""
	}
	return a.wire.Members
}

// MergeKey is the canonical (Name, Binding) sort key doAsk orders
// answers by, shared with the federation's cross-shard merge. The NUL
// separator cannot occur inside either component key (both render
// strings Go-quoted), so concatenation stays injective. It is defined
// through AppendMergeKey, so the two cannot drift. An answer relayed
// from a remote producer keeps the key computed there, so a
// federation's merge reproduces the child's exact sort order even if a
// display form failed to round-trip.
func (a *Answer) MergeKey() string {
	if a.wire != nil && a.wire.Key != "" {
		return a.wire.Key
	}
	return string(a.AppendMergeKey(nil))
}

// AppendMergeKey appends the bytes of MergeKey to dst — Name.Key, NUL,
// Binding.Key — without building either component string: a keyed
// reply (?keys=1) renders one per answer.
func (a *Answer) AppendMergeKey(dst []byte) []byte {
	if a.wire != nil && a.wire.Key != "" {
		return append(dst, a.wire.Key...)
	}
	dst = a.Name.AppendKey(dst)
	dst = append(dst, 0)
	var buf [8]string
	vars := buf[:0]
	for v := range a.Binding {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	for _, v := range vars {
		dst = append(dst, v...)
		dst = append(dst, '=')
		// Trees contribute their canonical key, not their display form
		// (engine.Binding.Key's rule).
		if tv, ok := a.Binding[v].(tree.TreeVal); ok {
			dst = tv.Root.AppendKey(dst)
		} else {
			dst = tree.AppendDisplay(dst, a.Binding[v])
		}
		dst = append(dst, ';')
	}
	return dst
}

// Ask matches a pattern (in YATL concrete syntax) against the virtual
// target and returns one answer per (object, binding). Optional
// functors restrict the search to objects minted by those Skolem
// functors; a demand-driven mediator then materializes only the rule
// slice those functors need.
func (m *Mediator) Ask(patternSrc string, functors ...string) ([]Answer, error) {
	return m.AskContext(nil, patternSrc, functors...)
}

// patCache memoizes parsed query patterns by source text, shared by
// every mediator and federation in the process (a parse is pure
// syntax). It admits patterns until it holds maxPatCache of them or
// maxPatCacheBytes of their text, so a client sending unbounded
// distinct patterns, each up to an /ask body, cannot exhaust memory;
// patterns past a bound parse uncached. A pattern longer than
// maxPatCacheText is never offered to it: the cache stops for good at
// the first pattern it refuses, and a few /ask bodies of that size
// must not be what stops it.
var patCache = newPatCache()

const (
	maxPatCache      = 4096
	maxPatCacheBytes = 1 << 20
	maxPatCacheText  = maxPatCacheBytes / 64
)

func newPatCache() *memo.Map[string, pattern.PTree] {
	return memo.New(maxPatCache, maxPatCacheBytes, func(src string, _ *pattern.PTree) int64 { return int64(len(src)) })
}

// ParsePattern parses an ask pattern (YATL concrete syntax) through
// the process-wide pattern cache. The error wraps the *yatl.ParseError;
// it is the one every Asker returns for a malformed pattern.
func ParsePattern(src string) (*pattern.PTree, error) {
	if pt := patCache.Load(src); pt != nil {
		return pt, nil
	}
	pt, err := yatl.ParsePattern(src)
	if err != nil {
		return nil, fmt.Errorf("mediator: %w", err)
	}
	if len(src) > maxPatCacheText {
		return pt, nil
	}
	patCache.Update(src, func(old *pattern.PTree) *pattern.PTree {
		if old != nil {
			return old
		}
		return pt
	})
	return pt, nil
}

// AskContext is Ask with a cancellation context applied to any engine
// run the query triggers.
func (m *Mediator) AskContext(ctx context.Context, patternSrc string, functors ...string) ([]Answer, error) {
	out, _, err := m.ask(ctx, patternSrc, functors, formAnswers, nil)
	return out, err
}

// AskReply is AskContext for a caller that sends the answers on rather
// than reading them: render turns the answers, and the number of the
// program-state generation that answered them, into the reply AskReply
// returns. keyed names which of a caller's two reply forms render
// writes, so a caller must render each form the same way every time:
// the ask memo keeps the replies instead of the answers, and a repeated
// ask returns the memoized bytes without calling render. The memo keeps
// a copy of what render returns, never the slice itself, so render may
// append into a buffer its caller reuses once the reply is sent; a reply
// that came from the memo is shared and must not be modified. render
// must neither modify the answers nor retain them.
func (m *Mediator) AskReply(ctx context.Context, patternSrc string, functors []string, keyed bool, render func(generation int64, answers []Answer) []byte) ([]byte, error) {
	form := formPlain
	if keyed {
		form = formKeyed
	}
	_, body, err := m.ask(ctx, patternSrc, functors, form, render)
	return body, err
}

// ask is the one entry of a pattern given as source text: AskContext
// and AskReply differ only in the form they want back.
func (m *Mediator) ask(ctx context.Context, patternSrc string, functors []string, form askForm, render func(int64, []Answer) []byte) ([]Answer, []byte, error) {
	return m.askTimed(ctx, patternSrc, nil, functors, form, render)
}

// AskPattern is Ask over a parsed pattern. An ask of a parsed pattern
// is not memoized: the ask memo is keyed by source text.
func (m *Mediator) AskPattern(pt *pattern.PTree, functors ...string) ([]Answer, error) {
	return m.AskPatternContext(nil, pt, functors...)
}

// AskPatternContext is AskPattern with a cancellation context applied
// to any engine run the query triggers.
func (m *Mediator) AskPatternContext(ctx context.Context, pt *pattern.PTree, functors ...string) ([]Answer, error) {
	out, _, err := m.askTimed(ctx, "", pt, functors, formAnswers, nil)
	return out, err
}

// askTimed is the shared ask core: it counts the ask and its time
// around doAsk. Counter discipline, pinned by TestAskCounterConsistency:
// every return path adds the elapsed time to AskTime, and exactly one
// of CacheHits/CacheMisses is incremented — a hit only when the answer
// came entirely from an already-successful materialization, a miss
// whenever engine work ran or was awaited, errors included — but for a
// pattern that fails to parse, which is still an ask but never
// consulted the cache: Asks == CacheHits + CacheMisses + parse failures.
func (m *Mediator) askTimed(ctx context.Context, src string, pt *pattern.PTree, functors []string, form askForm, render func(int64, []Answer) []byte) ([]Answer, []byte, error) {
	start := time.Now()
	m.asks.Add(1)
	// No defer: the closure it would capture allocates on every ask,
	// and the demand cache-hit path budgets its allocations.
	out, body, err := m.doAsk(ctx, src, pt, functors, form, render)
	m.askNanos.Add(time.Since(start).Nanoseconds())
	return out, body, err
}

// storelessMatcher serves every ask, in both modes, through the ask's
// compiled pattern (engine.CompilePattern, once per ask). An ask
// pattern comes with no model, and conformance against a model is the
// matcher's only use of a store, so there is none to hand it; its
// scratch is per match, so it is shared safely.
var storelessMatcher = &engine.Matcher{}

// doAsk answers one ask in the form it wants: the answers, and for a
// reply form render's reply over them, rendered with the number of the
// program state the ask read. The pattern is its source text src, or
// with pt non-nil, pt, which the ask memo does not hold.
func (m *Mediator) doAsk(ctx context.Context, src string, pt *pattern.PTree, functors []string, form askForm, render func(int64, []Answer) []byte) ([]Answer, []byte, error) {
	st := m.state()
	memoizable := false
	var memoKey askKey
	if g := st.dgen; pt == nil && g != nil {
		// The repeat of an identical ask skips parsing and matching
		// entirely.
		var key string
		if key, memoizable = memo.ListKey(functors); memoizable {
			memoKey = askKey{pattern: src, functors: key}
			am := g.cache.view().memo
			if e := am.Load(memoKey); e != nil {
				if out, body, ok := fromMemo(st.num, am, memoKey, e, form, render); ok {
					m.cacheHits.Add(1)
					m.memoHits.Add(1)
					trace.Emit(ctx, trace.Event{Kind: trace.KindMemoHit, Phase: trace.PhaseSlice})
					return out, body, nil
				}
			}
		}
	}
	if pt == nil {
		var err error
		if pt, err = ParsePattern(src); err != nil {
			return nil, nil, err
		}
	}
	entries, hit, view, err := m.read(ctx, st, pt, functors)
	if hit {
		m.cacheHits.Add(1)
	} else {
		// A failure — memoized ones included — is a miss on every ask:
		// nothing usable was served from cache.
		m.cacheMiss.Add(1)
	}
	if err != nil {
		return nil, nil, err
	}
	var out []Answer
	if len(entries) > 0 {
		plan := engine.CompilePattern(pt)
		var bs []engine.Binding
		for _, e := range entries {
			bs = storelessMatcher.Match(bs[:0], plan, e.Tree)
			for _, b := range bs {
				out = append(out, Answer{Name: e.Name, Binding: b})
			}
		}
	}
	if len(out) > 1 {
		names := make([]string, len(out))
		for i := range out {
			names[i] = out[i].Name.Key()
		}
		sort.Stable(&answerOrder{out, names})
	}
	var body []byte
	if form != formAnswers {
		body = render(st.num, out)
	}
	if memoizable {
		memoize(view.memo, memoKey, form, out, body)
	}
	return out, body, nil
}

// fromMemo serves an ask from its memo entry when the entry holds the
// form the ask wants, or — for a reply — the answers to render it from,
// which adds the reply to the entry. ok is false when it holds neither:
// the ask then matches again, over the demand cache. The hit returns a
// fresh slice header over copied elements so a caller appending to its
// result cannot disturb the memo; the Name trees and Bindings inside are
// shared, as they are between any two asks over one cache.
func fromMemo(generation int64, am *askMemo, key askKey, e *memoEntry, form askForm, render func(int64, []Answer) []byte) ([]Answer, []byte, bool) {
	switch {
	case form == formAnswers:
		if !e.hasAnswers || len(e.answers) == 0 {
			return nil, nil, e.hasAnswers
		}
		return slices.Clone(e.answers), nil, true
	case e.bodies[form-formPlain] != nil:
		return nil, e.bodies[form-formPlain], true
	case e.hasAnswers:
		body := render(generation, e.answers)
		memoize(am, key, form, nil, body)
		return nil, body, true
	}
	return nil, nil, false
}

// answerOrder sorts answers by (Name.Key, Binding.Key), the order
// MergeKey spells. Each name key is built once; a binding key — the
// dear one — only on a name tie, which no two objects of one view have.
type answerOrder struct {
	answers []Answer
	names   []string // names[i] is answers[i].Name.Key()
}

func (o *answerOrder) Len() int { return len(o.answers) }

func (o *answerOrder) Less(i, j int) bool {
	if o.names[i] != o.names[j] {
		return o.names[i] < o.names[j]
	}
	return o.answers[i].Binding.Key() < o.answers[j].Binding.Key()
}

func (o *answerOrder) Swap(i, j int) {
	o.answers[i], o.answers[j] = o.answers[j], o.answers[i]
	o.names[i], o.names[j] = o.names[j], o.names[i]
}

// read is the one read path behind Ask, Get and Functors, and the one
// mode branch on the read side. It returns the target's entries
// restricted to the given functors (none = the whole target), whether
// they were served entirely from an already-successful materialization
// (false on error), and — demand mode — the cache view they were read
// from, whose memo the ask's answers belong in. Demand-driven, only
// the functors' slice is ensured, and an ask's pattern (nil for Get and
// Functors) may narrow the entries to those it can match; otherwise the
// whole target materializes once and is filtered by functor alone: an
// engine run independent of the demand cache and its index, which is
// what lets the benchmark use it as the oracle.
func (m *Mediator) read(ctx context.Context, st *progState, pt *pattern.PTree, functors []string) ([]tree.StoreEntry, bool, *cacheView, error) {
	if m.demand {
		return m.ensureDemand(ctx, st, pt, functors)
	}
	res, warm, err := m.materialize(ctx, st)
	if err != nil {
		return nil, false, nil, err
	}
	entries := res.Outputs.Entries()
	if len(functors) > 0 {
		var kept []tree.StoreEntry
		for _, e := range entries {
			if slices.Contains(functors, e.Name.Functor) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	return entries, warm, nil, nil
}

// ensureDemand guarantees every functor group of the slice for the
// given functors (none = the whole program) is cached, running the
// engine over the missing groups' slice when necessary. It returns a
// consistent view of the cached entries restricted to the requested
// functors — with a pattern, to the candidates the cache's leaf-path
// index leaves it (every entry it can match, possibly more) — whether
// the query was served entirely from cache, and the cache view they
// were read from. A hit reads the published view and takes no lock; a
// miss runs under the generation lock, which makes it the singleflight
// of every ask missing the same groups.
func (m *Mediator) ensureDemand(ctx context.Context, st *progState, pt *pattern.PTree, functors []string) ([]tree.StoreEntry, bool, *cacheView, error) {
	g := st.dgen
	sl := st.comp.Slice(functors...)
	if v := g.cache.view(); v.covers(sl) {
		traceSlice(ctx, sl, v)
		return v.candidates(pt, functors...), true, v, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	v := g.cache.view()
	traceSlice(ctx, sl, v)
	var missing []string // repeats are harmless: the memo dedups
	for _, r := range sl.Construct {
		if !v.has(r.Head.Functor) {
			missing = append(missing, r.Head.Functor)
		}
	}
	if len(missing) > 0 {
		// Re-slice from the missing functors and run from scratch:
		// re-deriving a cached dependency repeats work but keeps the
		// activation fixpoint identical to a full run's, which is what
		// makes the cached entries byte-identical and composable.
		// One input snapshot per generation: the first successful fetch
		// is pinned and every later cold slice runs over it. A restored
		// generation's store-less pin stays, so its slices each fetch.
		snap := g.pin
		if snap.store() == nil {
			var err error
			if snap, err = m.fetch(ctx); err != nil {
				g.failed(err)
				return nil, false, nil, err
			}
			if g.pin == nil {
				g.pin = snap
			}
		}
		sub := st.comp.Slice(missing...)
		res, err := st.comp.RunSlice(ctx, snap.store(), sub)
		if err != nil {
			g.failed(err)
			return nil, false, nil, err
		}
		g.ran(res.Stats)
		g.cache.commit(sub.Construct, res.Outputs)
		v = g.cache.view()
	}
	return v.candidates(pt, functors...), len(missing) == 0, v, nil
}

// traceSlice emits one cache hit or miss event per construct rule of
// the slice, as the view holds its group or not, to the sink ctx
// carries.
func traceSlice(ctx context.Context, sl *engine.Slice, v *cacheView) {
	sink := trace.SinkFrom(ctx)
	if sink == nil {
		return
	}
	for _, r := range sl.Construct {
		kind := trace.KindCacheHit
		if !v.has(r.Head.Functor) {
			kind = trace.KindCacheMiss
		}
		sink.Emit(trace.Event{Kind: kind, Phase: trace.PhaseSlice, Rule: r.Name})
	}
}

// Get resolves one virtual object by Skolem identity. A demand-driven
// mediator materializes only the identity's functor slice.
func (m *Mediator) Get(name tree.Name) (*tree.Node, bool, error) {
	return m.GetContext(nil, name)
}

// GetContext is Get with a cancellation context applied to any engine
// run the lookup triggers.
func (m *Mediator) GetContext(ctx context.Context, name tree.Name) (*tree.Node, bool, error) {
	entries, _, _, err := m.read(ctx, m.state(), nil, []string{name.Functor})
	if err != nil {
		return nil, false, err
	}
	// Identity is the Store's: binary keys, one reused buffer.
	key, scratch := name.AppendBinaryKey(nil), make([]byte, 0, 96)
	for _, e := range entries {
		if scratch = e.Name.AppendBinaryKey(scratch[:0]); string(scratch) == string(key) {
			return e.Tree, true, nil
		}
	}
	return nil, false, nil
}

// Functors lists the Skolem functors present in the target, sorted.
// This needs the whole target, so a demand-driven mediator fully
// materializes here.
func (m *Mediator) Functors() ([]string, error) {
	entries, _, _, err := m.read(nil, m.state(), nil, nil)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if !seen[e.Name.Functor] {
			seen[e.Name.Functor] = true
			out = append(out, e.Name.Functor)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats reports the mediator's materialization state and query
// counters. The zero value of every field is meaningful before the
// first query. It is its own wire document: the JSON tags (field order
// is key order) are what GET /stats serves, `yatprof -stats -json`
// prints and the remote shard client decodes — see statsjson.go.
type Stats struct {
	// Generation is the current program-state generation number (1 on
	// construction, +1 per Invalidate or Reload).
	Generation int64 `json:"generation"`
	// Materialized reports that the *current* generation has
	// materialized successfully. False both before the first query
	// and after Invalidate.
	Materialized bool `json:"materialized"`
	// Err is the materialization error of the current generation, if
	// it ran and failed. Nil when the generation has not run yet —
	// Materialized false with a nil Err means "no query has run",
	// resolving the ambiguity a bare zero engine.Stats used to hide.
	// On the wire it is its message ("err", omitted when nil).
	Err error `json:"-"`
	// Demand reports the mediator evaluates demand-driven. CachedRules,
	// SliceRuns and the delta counters are only meaningful when it is
	// set.
	Demand bool `json:"demand"`
	// Restored reports the current generation was warm-started from a
	// persisted snapshot rather than computed by this process; its
	// cached answers came from disk, validated by program and options
	// hash.
	Restored bool `json:"restored,omitempty"`
	// Asks counts AskPattern calls; CacheHits of those found the
	// generation already materialized, CacheMisses triggered (or
	// waited on) a materialization.
	Asks        int64 `json:"asks"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// MemoHits counts the CacheHits the ask memo served without matching
	// anything; the rest matched cached (demand mode) or materialized
	// entries. A memo entry keeps only the forms its asks wanted — the
	// answers (AskContext), a plain or a keyed reply (AskReply) — so an
	// AskReply whose entry holds the answers but not its reply renders
	// them and is a memo hit, while an ask whose entry holds neither its
	// form nor, for a reply, the answers (only the other reply, or only
	// replies behind an AskContext) matches again over the demand cache:
	// a cache hit, not a memo hit.
	MemoHits int64 `json:"memo_hits"`
	// MemoEntries and MemoBytes are what the ask memo of the current
	// view holds, as it counts them against MaxAskMemo and
	// memo.MaxBytes; a federation adds its reply memo's.
	MemoEntries int   `json:"memo_entries"`
	MemoBytes   int64 `json:"memo_bytes"`
	// MemoReplays counts the asks a federation answered from its reply
	// memo, LeasedReplays those of them no child was asked for, under
	// the children's read leases, and NotModified the 304s its children
	// answered its conditional asks with. All three are zero for a
	// mediator.
	MemoReplays   int64 `json:"memo_replays"`
	LeasedReplays int64 `json:"leased_replays"`
	NotModified   int64 `json:"not_modified"`
	// AskTime is the cumulative wall time spent inside Ask calls;
	// divide by Asks for the mean per-query latency.
	AskTime source.Millis `json:"ask_time_ms,omitempty"`
	// CachedRules is the number of construct rules of the functor groups
	// currently cached.
	CachedRules int `json:"cached_rules"`
	// SliceRuns counts engine slice executions performed; an Ask that
	// increments CacheHits performed none.
	SliceRuns int64 `json:"slice_runs"`
	// DeltaRuns counts RefreshSource calls absorbed in place: the new
	// fetch was diffed against the generation's pinned one and the slice
	// of the cached groups it reaches was re-run (or the delta was empty,
	// or touched no cached rule, and nothing ran). DeltaFallbacks counts
	// the rest: wholesale invalidations (degraded source, no baseline,
	// another source down), failed fetches of the refreshed source and
	// failed re-runs. PatchedRules counts the construct rules of the
	// cached groups whose entries were rewritten.
	DeltaRuns      int64 `json:"delta_runs"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	PatchedRules   int64 `json:"patched_rules"`
	// Run holds the statistics of the current materialization when
	// one succeeded, else those of the last good generation (kept
	// readable across Invalidate until the replacement materializes).
	Run engine.Stats `json:"run"`
	// Sources reports per-source health for a mediator consuming
	// fault-tolerant sources (WithSources), in declaration order;
	// empty otherwise.
	Sources []SourceStatus `json:"sources,omitempty"`
	// Shards reports per-child health for a federation router, in
	// child declaration order; empty for a plain mediator. Aggregate
	// concatenates them, so a server over several federations reports
	// all their children.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// ShardStatus is one federation child's health as the router sees it:
// the guard chain's counters (attempts, retries, breaker state) plus
// the outcome of the router's most recent call.
type ShardStatus struct {
	// Name identifies the child (configured name or client base URL).
	Name string `json:"name"`
	// Remote reports the child is reached over HTTP rather than
	// in-process.
	Remote bool `json:"remote,omitempty"`
	// Functors is the number of functor groups routed to the child.
	Functors int `json:"functors"`
	// Asks and Failures count the router's calls into the child and
	// how many of them errored after the guard chain gave up.
	Asks     int64 `json:"asks"`
	Failures int64 `json:"failures"`
	// Healthy reports the most recent call succeeded (true before the
	// first call: a child is innocent until it fails).
	Healthy bool `json:"healthy"`
	// Breaker is the guard chain's breaker state ("closed", "open",
	// "half-open"; empty when no breaker is configured).
	Breaker string `json:"breaker,omitempty"`
	// LastErr is the most recent call error, "" when it succeeded.
	LastErr string `json:"last_err,omitempty"`
}

// SourceStatus is one source's health as the mediator sees it: the
// source chain's own counters (attempts, retries, breaker state,
// staleness) plus the outcome of the mediator's most recent fetch.
type SourceStatus struct {
	source.Stats
	// FetchErr is the error of the mediator's most recent fetch of
	// this source, "" when it succeeded (or never ran).
	FetchErr string `json:"fetch_err,omitempty"`
	// Entries is the number of store entries the source contributed to
	// the most recent successful merge.
	Entries int `json:"entries"`
}

// Stats exposes the mediator's statistics. It never triggers a
// materialization itself; the atomic done flag orders the read after
// the run's writes.
func (m *Mediator) Stats() Stats {
	var s Stats
	if m.demand {
		s = m.demandStats()
	} else {
		m.mu.Lock()
		st := m.state()
		g := st.gen
		s = Stats{Run: m.lastGood, Generation: st.num}
		m.mu.Unlock()
		if g.done.Load() {
			if g.err != nil {
				s.Err = g.err
			} else {
				s.Materialized = true
				if g.result != nil {
					s.Run = g.result.Stats
				}
			}
		}
	}
	s.Asks = m.asks.Load()
	s.CacheHits = m.cacheHits.Load()
	s.CacheMisses = m.cacheMiss.Load()
	s.MemoHits = m.memoHits.Load()
	s.AskTime = source.Millis(m.askNanos.Load())
	s.DeltaRuns = m.deltaRuns.Load()
	s.DeltaFallbacks = m.deltaFallbacks.Load()
	s.PatchedRules = m.patchedRules.Load()
	s.Sources = m.sourceStatuses()
	return s
}

// demandStats assembles the cache-state half of Stats for a
// demand-driven mediator, without a lock: Run accumulates engine work
// across slice runs, Materialized means every construct rule of the
// program is cached.
func (m *Mediator) demandStats() Stats {
	st := m.state()
	g := st.dgen
	v, l := g.cache.view(), g.ledger.Load()
	full := st.comp.Slice()
	return Stats{
		Run:          l.stats,
		Demand:       true,
		Restored:     g.restored,
		CachedRules:  v.cachedRules(),
		MemoEntries:  v.memo.Len(),
		MemoBytes:    v.memo.Bytes(),
		SliceRuns:    l.runs,
		Err:          l.err,
		Generation:   st.num,
		Materialized: len(full.Construct) > 0 && v.covers(full),
	}
}

// Invalidate drops the materialized target, forcing the next query to
// reconvert (sources changed). Queries already running against the
// old generation finish against its consistent snapshot.
func (m *Mediator) Invalidate() {
	m.mu.Lock()
	next := *m.state()
	next.gen, next.num = &generation{}, next.num+1
	if m.demand {
		next.dgen = newDemandGen(runLedger{})
	}
	m.cur.Store(&next)
	m.mu.Unlock()
}

// Reload swaps the mediator's program for a recompiled one behind the
// atomic program state: queries already running finish against the
// old program's consistent cache, queries arriving afterwards observe
// the new program — never a mix of the two. On a demand-driven
// mediator the demand cache survives where safe: a cached functor
// group stays warm exactly when its rule slice — construct and
// support rules alike — is present in the new program with identical
// rule names and identical rule text, so nothing that could have
// influenced its cached outputs changed; such a group is shared with
// the old generation, every other group is left behind. A non-demand
// mediator reconverts wholesale on the next query.
//
// Rule text alone is not the whole cache key: the options hash —
// which folds in the builtin registry's surface — is recomputed here
// and compared against the hash the cached entries were computed
// under. A Register call between reloads changes what identical rule
// text evaluates to, so a mismatch evicts everything instead of
// carrying over entries the new surface would not reproduce.
func (m *Mediator) Reload(prog *yatl.Program) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.state()
	next := m.compile(prog)
	next.num = old.num + 1
	if m.reloadKeepsCompiled {
		next.comp = old.comp
	}
	if m.demand {
		if next.optsHash == old.optsHash {
			next.dgen = old.dgen.cloneFor(old.comp, next.comp)
		} else {
			next.dgen = newDemandGen(runLedger{})
		}
	}
	m.cur.Store(next)
}

// RefreshSource re-fetches the named source and absorbs whatever
// changed. A demand-driven mediator diffs the new fetch against the
// snapshot this generation's cache was computed from and re-runs only
// the slice of the cached groups the delta can reach (delta.go) — or,
// for a previously degraded source or a generation with no baseline,
// invalidates wholesale. A refresh racing a Reload is absorbed by the
// generation the Reload installs. When the fetch leaves the named
// source down it returns a *FetchError naming it and changes nothing:
// the generation keeps answering, completely, from the snapshot it
// pinned, while Stats reports the failed fetch. A full-materialization
// mediator reconverts wholesale. A nil ctx is normalized before it can
// reach source decorators (whose timeout and breaker paths call ctx
// methods); an unknown name returns a *NotFoundError.
func (m *Mediator) RefreshSource(ctx context.Context, name string) error {
	if !slices.ContainsFunc(m.sources, func(s source.Source) bool { return s.Name() == name }) {
		return &NotFoundError{Name: name}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if !m.demand {
		m.Invalidate()
		return nil
	}
	return m.refreshDelta(ctx, name)
}
