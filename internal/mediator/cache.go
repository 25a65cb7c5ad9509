// The demand cache: the one owner of everything a demand-driven
// generation has materialized.
//
// A slice run caches whole functor groups, and only a group's own rules
// mint its functor, so the cache is a map from head functor to an
// immutable *group*: the entries of that functor a run's output store
// holds — the functor's extent, the unit asks read, refreshes rewrite,
// reloads carry over and snapshots persist — and the leaf-path index
// over them (index.go). Which rule of the group minted an entry is not
// recorded, and neither is what the group depends on: that is the
// group's slice, which the program decides (dependents).
//
// The locking rule: reads are lock-free, writes run under the owning
// generation's lock (demandGen.mu). The cache publishes an immutable
// view — the groups map, its version and that version's ask memo —
// behind an atomic pointer. A reader loads the view once and works
// against it throughout, so a bucket handed to an ask stays consistent
// for as long as the ask holds it. A writer never edits a published
// map or group: it builds a new groups map (copy-on-write, the groups
// themselves shared), and publishing it is the one store of the pointer
// — with the next version and a fresh, empty memo.
//
// Every write goes through commit, evict or carryOver, the only places
// a view is published; the memo of a view is written by its own asks
// (memoize). No other file names a field of demandCache, cacheView
// or group.
package mediator

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"yat/internal/engine"
	"yat/internal/memo"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// demandCache is one generation's cache of materialized functor groups
// plus the ask memo layered over them.
type demandCache struct {
	// cur is the published view; never nil.
	cur atomic.Pointer[cacheView]
}

// cacheView is one published state of the cache. Immutable but for the
// memo, which only ever holds answers derived from this view's groups.
type cacheView struct {
	// groups holds the cached functor groups. Presence is the only
	// "cached" flag there is.
	groups map[string]*group
	// ver counts the views published before this one.
	ver uint64
	// memo holds the assembled answers, or rendered replies, of completed
	// asks over this view: the repeat of an identical ask skips matching
	// entirely. An ask memoizes into the view its answers were read from,
	// so a write that lost a race with a refresh lands in a view no reader
	// loads again.
	memo *askMemo
}

// group is one cached functor group. Immutable once published.
type group struct {
	// bucket is the group: the entries its functor mints, each identity
	// once, in the order the run's output store holds them.
	bucket []tree.StoreEntry
	// index finds the bucket entries that hold a constant root-to-leaf
	// label path (index.go), so a point lookup matches its candidates,
	// not the bucket. Derived from bucket, it is not persisted.
	index pathIndex
	// rules is the number of construct rules the group stands for (what
	// Stats reports as cached and patched rules).
	rules int
}

// askKey identifies one memoizable ask: the pattern's source text and
// the functor restriction (memo.ListKey). Only an ask given as text is
// memoized, so a memo hit parses nothing, and no state of the parse
// cache changes what hits.
type askKey struct {
	pattern  string
	functors string
}

// MaxAskMemo bounds the entries of a view's ask memo; memo.MaxBytes
// bounds its bytes. At either bound new asks simply stop memoizing until
// the next view starts an empty memo.
const MaxAskMemo = 512

// askForm is what an ask hands back: its answers (AskContext and the
// rest of the Asker surface) or one of the two replies AskReply renders,
// plain or keyed.
type askForm uint8

const (
	formAnswers askForm = iota
	formPlain
	formKeyed
)

// askMemo is one view's ask memo: one entry per memoized ask.
type askMemo = memo.Map[askKey, memoEntry]

func newAskMemo() *askMemo { return memo.New(MaxAskMemo, memo.MaxBytes, memoEntrySize) }

// memoEntry is one memoized ask: the forms its callers asked for, each
// filled on first use, so an ask only ever answered over HTTP keeps its
// reply bytes and not the answers' binding maps as well. Immutable once
// stored; filling a form stores a successor.
type memoEntry struct {
	// answers are the ask's answers, set iff hasAnswers (nil when there
	// are none).
	answers    []Answer
	hasAnswers bool
	// bodies are the rendered replies, plain and keyed, nil until asked
	// for: exact-size copies of what an AskReply render returned.
	bodies [2][]byte
}

// What a memo entry holds beyond the view's groups, which its answers'
// names and bound values point into: the entry and its map slot, and per
// answer the Answer and its binding map (TestAskMemoHoldsItsByteBound
// measures both), and the key's text.
const (
	memoEntryCost = 256
	answerCost    = 512
)

func memoEntrySize(key askKey, e *memoEntry) int64 {
	return memoEntryCost + int64(len(key.pattern)+len(key.functors)+len(e.bodies[0])+len(e.bodies[1])+answerCost*len(e.answers))
}

// memoize records one form of a completed ask in m: answers for
// formAnswers, else the rendered body. A new key takes an entry unless
// the memo is full; a memoized one gains the form.
func memoize(m *askMemo, key askKey, form askForm, answers []Answer, body []byte) {
	var fill *memoEntry // the form alone, copied once
	i := form - formPlain
	m.Update(key, func(old *memoEntry) *memoEntry {
		if fill == nil {
			fill = new(memoEntry)
			if form == formAnswers {
				fill.answers, fill.hasAnswers = slices.Clone(answers), true
			} else {
				// Exact size, and never the caller's buffer: a render may
				// hand back a pooled one it will reuse.
				fill.bodies[i] = append(make([]byte, 0, len(body)), body...)
			}
		}
		if old == nil {
			return fill
		}
		next := *old
		if form == formAnswers {
			next.answers, next.hasAnswers = fill.answers, true
		} else {
			next.bodies[i] = fill.bodies[i]
		}
		return &next
	})
}

func newDemandCache() *demandCache {
	c := &demandCache{}
	c.cur.Store(&cacheView{groups: map[string]*group{}, memo: newAskMemo()})
	return c
}

// view is the published view: lock-free, and consistent for as long as
// the caller holds it.
func (c *demandCache) view() *cacheView { return c.cur.Load() }

// publish installs the successor of the current view: edit fills a copy
// of its groups map — a map no reader has seen — and only the finished
// map is published, with the next version and an empty memo. Under
// demandGen.mu.
func (c *demandCache) publish(edit func(groups map[string]*group)) {
	cur := c.view()
	groups := maps.Clone(cur.groups)
	edit(groups)
	c.cur.Store(&cacheView{groups: groups, ver: cur.ver + 1, memo: newAskMemo()})
}

func (v *cacheView) has(functor string) bool { return v.groups[functor] != nil }

// bucket returns the functor's read bucket (nil when not cached),
// uncopied: groups are immutable, so the hit path allocates nothing.
func (v *cacheView) bucket(functor string) []tree.StoreEntry {
	if g := v.groups[functor]; g != nil {
		return g.bucket
	}
	return nil
}

// covers reports whether every construct rule of the slice has its
// group cached: an ask over it is a hit.
func (v *cacheView) covers(sl *engine.Slice) bool {
	for _, r := range sl.Construct {
		if !v.has(r.Head.Functor) {
			return false
		}
	}
	return true
}

// candidates returns the entries of the given functors' buckets (none =
// every cached group, in functor order) that pt can match: per group,
// the entries under the pattern's most selective usable path (index.go).
// A nil pattern, or one with no usable path, selects whole buckets; a
// single bucket is then returned uncopied.
func (v *cacheView) candidates(pt *pattern.PTree, functors ...string) []tree.StoreEntry {
	var buf [8]uint32
	paths := buf[:0]
	if pt != nil {
		paths = appendUsablePaths(paths, pt, pathSeed)
	}
	switch len(functors) {
	case 0:
		functors = v.cached()
	case 1:
		if g := v.groups[functors[0]]; g != nil {
			return g.candidates(paths)
		}
		return nil
	}
	var out []tree.StoreEntry
	seen := map[string]bool{}
	for _, f := range functors {
		if g := v.groups[f]; g != nil && !seen[f] {
			seen[f] = true
			out = append(out, g.candidates(paths)...)
		}
	}
	return out
}

// candidates returns the bucket entries a pattern with the given usable
// paths can match, in bucket order: those under its most selective
// path. No path, or a path every entry holds, selects the bucket
// itself, uncopied.
func (g *group) candidates(paths []uint32) []tree.StoreEntry {
	if len(paths) == 0 {
		return g.bucket
	}
	refs := g.index.narrowest(paths)
	switch len(refs) {
	case 0:
		return nil
	case len(g.bucket):
		return g.bucket
	}
	out := make([]tree.StoreEntry, len(refs))
	for i, ref := range refs {
		out[i] = g.bucket[uint32(ref)]
	}
	return out
}

// cached lists the cached functors, sorted.
func (v *cacheView) cached() []string {
	out := make([]string, 0, len(v.groups))
	for f := range v.groups {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// cachedRules counts the construct rules of the cached groups. Stats
// asks on every federated ask, so it allocates nothing.
func (v *cacheView) cachedRules() int {
	n := 0
	for _, g := range v.groups {
		n += g.rules
	}
	return n
}

// dependents lists, sorted, the cached functors whose group depends on
// one of the rules: the rule is in the group's slice of the program, as
// construct or support.
func (c *demandCache) dependents(prog *engine.Compiled, rules map[string]bool) []string {
	var out []string
	for f := range c.view().groups {
		own := prog.Slice(f)
		for rule := range rules {
			if own.Includes(rule) {
				out = append(out, f)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// commit publishes a run's result: one rebuilt group per functor the
// run computed, superseding what was cached — the cold fill, the
// refresh's re-run, the snapshot load. rules are the slice's construct
// rules; outputs is the run's output store, of which a group takes the
// entries its functor mints. It returns the construct rules of the
// groups whose bucket differs from what was cached. Under demandGen.mu.
func (c *demandCache) commit(rules []*yatl.Rule, outputs *tree.Store) (changed int) {
	cur := c.view()
	minted := byFunctor(outputs.Entries())
	fresh := map[string]*group{}
	for _, r := range rules {
		f := r.Head.Functor
		if fresh[f] == nil {
			fresh[f] = &group{bucket: minted[f]}
		}
		fresh[f].rules++
	}
	for f, g := range fresh {
		if !entriesEqual(cur.bucket(f), g.bucket) {
			changed += g.rules
		}
		g.index = buildPathIndex(g.bucket)
	}
	c.publish(func(groups map[string]*group) { maps.Copy(groups, fresh) })
	return changed
}

// byFunctor splits a run's entries by the functor that mints them,
// keeping their order, into exactly sized lists: they are retained for
// as long as the groups are.
func byFunctor(entries []tree.StoreEntry) map[string][]tree.StoreEntry {
	sizes := map[string]int{}
	for _, e := range entries {
		sizes[e.Name.Functor]++
	}
	out := make(map[string][]tree.StoreEntry, len(sizes))
	for _, e := range entries {
		f := e.Name.Functor
		if out[f] == nil {
			out[f] = make([]tree.StoreEntry, 0, sizes[f])
		}
		out[f] = append(out[f], e)
	}
	return out
}

// entriesEqual reports byte-identity of two committed entry lists:
// same names, same trees, same order.
func entriesEqual(a, b []tree.StoreEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name.Key() != b[i].Name.Key() || !a[i].Tree.Equal(b[i].Tree) {
			return false
		}
	}
	return true
}

// evict drops the named functor groups. Only a group's own rules mint
// its functor, so an eviction cannot strand entries another cached
// group still answers from. Evicting nothing publishes nothing. Under
// demandGen.mu.
func (c *demandCache) evict(functors ...string) {
	if !slices.ContainsFunc(functors, c.view().has) {
		return
	}
	c.publish(func(groups map[string]*group) {
		for _, f := range functors {
			delete(groups, f)
		}
	})
}

// carryOver builds the successor cache for a program reload: the
// groups keep approves are shared with c by pointer (immutable, so
// asks on the old generation and refreshes of the new one cannot
// disturb each other), the rest are left behind. c itself is not
// modified.
func (c *demandCache) carryOver(keep func(functor string) bool) *demandCache {
	next := &demandCache{}
	next.cur.Store(c.view())
	next.publish(func(groups map[string]*group) {
		maps.DeleteFunc(groups, func(f string, _ *group) bool { return !keep(f) })
	})
	return next
}
