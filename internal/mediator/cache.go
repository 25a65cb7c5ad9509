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
// group's slice, which the program decides (dependents). A mutator never
// edits a group; it builds a replacement and swaps the map slot, so a
// bucket handed to an ask stays a consistent view for as long as the ask
// holds it.
//
// Every write goes through commit, evict, carryOver or memoize, and the
// first three are the only places the version is bumped and the ask
// memo cleared. No other file names a field of demandCache or group.
// Every method runs under the owning generation's lock (demandGen.mu).
package mediator

import (
	"sort"

	"yat/internal/engine"
	"yat/internal/pattern"
	"yat/internal/tree"
	"yat/internal/yatl"
)

// demandCache is one generation's cache of materialized functor groups
// plus the ask memo layered over them.
type demandCache struct {
	// slice computes the (pruned, memoized) rule slice of the program
	// the cache serves; a group's own slice is slice(functor).
	slice func(functors ...string) *engine.Slice
	// groups holds the cached functor groups. Presence is the only
	// "cached" flag there is.
	groups map[string]*group
	// ver counts mutations of groups. A memo write carries the version
	// its answers were derived from and is refused when stale, so an
	// ask racing a mutation can never memoize outdated answers.
	ver uint64
	// memo holds the assembled answers of completed asks: the repeat of
	// an identical ask skips matching entirely. Cleared by every
	// mutation of groups.
	memo map[askKey][]Answer
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

// askKey identifies one memoizable ask: the parsed pattern (by
// pointer — Ask's pattern parse cache hands back a stable *PTree per
// source text) and the functor restriction.
type askKey struct {
	pt       *pattern.PTree
	functors string
}

// maxAskMemo bounds the ask memo; at the cap new asks simply stop
// memoizing until a mutation clears the map.
const maxAskMemo = 512

func newDemandCache(slice func(functors ...string) *engine.Slice) *demandCache {
	return &demandCache{slice: slice, groups: map[string]*group{}, memo: map[askKey][]Answer{}}
}

func (c *demandCache) version() uint64 { return c.ver }

func (c *demandCache) has(functor string) bool { return c.groups[functor] != nil }

// bucket returns the functor's read bucket (nil when not cached),
// uncopied: groups are immutable, so the hit path allocates nothing.
func (c *demandCache) bucket(functor string) []tree.StoreEntry {
	if g := c.groups[functor]; g != nil {
		return g.bucket
	}
	return nil
}

// candidates returns the entries of the given functors' buckets (none =
// every cached group, in functor order) that pt can match: per group,
// the entries under the pattern's most selective usable path (index.go).
// A nil pattern, or one with no usable path, selects whole buckets; a
// single bucket is then returned uncopied.
func (c *demandCache) candidates(pt *pattern.PTree, functors ...string) []tree.StoreEntry {
	var buf [8]uint32
	paths := buf[:0]
	if pt != nil {
		paths = appendUsablePaths(paths, pt, pathSeed)
	}
	switch len(functors) {
	case 0:
		functors = c.cached()
	case 1:
		if g := c.groups[functors[0]]; g != nil {
			return g.candidates(paths)
		}
		return nil
	}
	var out []tree.StoreEntry
	seen := map[string]bool{}
	for _, f := range functors {
		if g := c.groups[f]; g != nil && !seen[f] {
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
func (c *demandCache) cached() []string {
	out := make([]string, 0, len(c.groups))
	for f := range c.groups {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// cachedRules counts the construct rules of the cached groups. Stats
// asks on every federated ask, so it allocates nothing.
func (c *demandCache) cachedRules() int {
	n := 0
	for _, g := range c.groups {
		n += g.rules
	}
	return n
}

// dependents lists, sorted, the cached functors whose group depends on
// one of the rules: the rule is in the group's slice, as construct or
// support. The slice is the pruned one the group was computed by, so a
// rule that can never fire is in no group's dependency set.
func (c *demandCache) dependents(rules map[string]bool) []string {
	var out []string
	for f := range c.groups {
		own := c.slice(f)
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

// lookup returns a memoized ask's answers. The slice is the memo's own
// and must be copied before it is handed to a caller.
func (c *demandCache) lookup(key askKey) ([]Answer, bool) {
	answers, ok := c.memo[key]
	return answers, ok
}

// mutated is the one place a change to groups is made visible to the
// ask memo: the version moves on and every memoized answer goes.
func (c *demandCache) mutated() {
	c.ver++
	if len(c.memo) > 0 {
		clear(c.memo)
	}
}

// commit publishes a run's result: one rebuilt group per functor the
// run computed. functors are the head functors of the slice's construct
// rules, one per rule; outputs is the run's output store, of which a
// group takes the entries its functor mints. In replace mode (the cold
// fill, the tier-2 re-run, the snapshot load) they supersede the old
// ones. In append mode (the tier-1 insert patch) the run derived only a
// delta's consequences: they are appended — unless a fresh entry's
// identity is already cached, when nothing is committed and ok is false
// (the new bindings belong in an existing entry, which only a re-run
// can rebuild). changed counts the construct rules of the groups whose
// bucket differs from what was cached.
func (c *demandCache) commit(functors []string, outputs *tree.Store, appendTo bool) (changed int, ok bool) {
	minted := byFunctor(outputs.Entries())
	fresh := map[string]*group{}
	for _, f := range functors {
		if fresh[f] == nil {
			fresh[f] = &group{bucket: minted[f]}
		}
		fresh[f].rules++
	}
	for f, g := range fresh {
		old := c.bucket(f)
		if !appendTo {
			if !entriesEqual(old, g.bucket) {
				changed += g.rules
			}
			continue
		}
		if len(g.bucket) == 0 {
			g.bucket = old
			continue
		}
		held := make(map[string]bool, len(old))
		for _, e := range old {
			held[e.Name.Key()] = true
		}
		for _, e := range g.bucket {
			if held[e.Name.Key()] {
				return 0, false
			}
		}
		g.bucket = append(old[:len(old):len(old)], g.bucket...)
		changed += g.rules
	}
	c.mutated()
	for f, g := range fresh {
		g.index = buildPathIndex(g.bucket)
		c.groups[f] = g
	}
	return changed, true
}

// headFunctors lists the head functor of each rule, in order: what
// commit takes of a slice's construct rules.
func headFunctors(rules []*yatl.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Head.Functor
	}
	return out
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
// group still answers from. Evicting nothing is not a mutation.
func (c *demandCache) evict(functors ...string) {
	for _, f := range functors {
		if c.has(f) {
			c.mutated()
			delete(c.groups, f)
		}
	}
}

// carryOver builds the successor cache for a program reload: the
// groups keep approves are shared with c by pointer (immutable, so
// asks on the old generation and patches on the new one cannot disturb
// each other), the rest are left behind. c itself is not modified.
func (c *demandCache) carryOver(slice func(functors ...string) *engine.Slice, keep func(functor string) bool) *demandCache {
	next := newDemandCache(slice)
	next.ver = c.ver
	next.mutated()
	for f, g := range c.groups {
		if keep(f) {
			next.groups[f] = g
		}
	}
	return next
}

// memoize records a completed ask's answers, unless the cache mutated
// since the version the answers were derived from or the memo is full.
func (c *demandCache) memoize(key askKey, answers []Answer, version uint64) {
	if c.ver != version || len(c.memo) >= maxAskMemo {
		return
	}
	c.memo[key] = append([]Answer(nil), answers...)
}
