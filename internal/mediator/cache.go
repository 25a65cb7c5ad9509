// The demand cache: the one owner of everything a demand-driven
// generation has materialized.
//
// A slice run caches whole functor groups, and only a group's own rules
// mint its functor, so the cache is a map from head functor to an
// immutable *group*: per-rule committed entries are the truth, one
// name-deduplicated read bucket and the leaf-path index over it
// (index.go) are derived from them. What a group depends on is not
// recorded: it is the group's slice, which the program decides
// (dependents). A mutator never edits a group; it builds a replacement
// and swaps the map slot, so a bucket handed to an ask stays a
// consistent view for as long as the ask holds it.
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
	// outputs holds, per construct rule of the functor, the entries the
	// rule committed. Rules of one group that mint the same identity
	// each list the shared entry.
	outputs map[string][]tree.StoreEntry
	// bucket is what asks read: the rules' entries in declaration order
	// of the rules, each identity once.
	bucket []tree.StoreEntry
	// index finds the bucket entries that hold a constant root-to-leaf
	// label path (index.go), so a point lookup matches its candidates,
	// not the bucket. Derived from bucket, like bucket it is not persisted.
	index pathIndex
}

// sliceRun is what the cache keeps of one engine slice run (or of a
// snapshot payload, which records the same): the head functors of the
// groups computed (repeats allowed) and each construct rule's entries.
type sliceRun struct {
	functors []string
	outputs  map[string][]tree.StoreEntry
}

func runOf(sl *engine.Slice, res *engine.SliceResult) sliceRun {
	run := sliceRun{outputs: res.RuleOutputs}
	for _, r := range sl.Construct {
		run.functors = append(run.functors, r.Head.Functor)
	}
	return run
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
		for f := range c.groups {
			functors = append(functors, f)
		}
		sort.Strings(functors)
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

// cachedRules counts the cached construct rules. Stats asks on every
// federated ask, so it allocates nothing.
func (c *demandCache) cachedRules() int {
	n := 0
	for _, g := range c.groups {
		n += len(g.outputs)
	}
	return n
}

// rules returns every cached construct rule's committed entries.
func (c *demandCache) rules() map[string][]tree.StoreEntry {
	out := map[string][]tree.StoreEntry{}
	for _, g := range c.groups {
		for rule, entries := range g.outputs {
			out[rule] = entries
		}
	}
	return out
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
// run computed. In replace mode (the cold fill, the tier-2 re-run, the
// snapshot load) the run's entries supersede the old ones. In append
// mode (the tier-1 insert patch) the run derived only a delta's
// consequences: they are appended — unless a fresh entry's identity is
// already cached, when nothing is committed and ok is false (the new
// bindings belong in an existing entry, which only a re-run can
// rebuild). changed counts the rules whose entry list differs from what
// was cached.
func (c *demandCache) commit(run sliceRun, appendTo bool) (changed int, ok bool) {
	fresh := map[string]*group{}
	for _, f := range run.functors {
		if fresh[f] != nil {
			continue
		}
		old := c.groups[f]
		if old == nil {
			old = &group{}
		}
		var n int
		fresh[f], n = c.build(f, run, old, appendTo)
		changed += n
	}
	if appendTo {
		held := map[string]bool{}
		for f := range fresh {
			for _, e := range c.bucket(f) {
				held[e.Name.Key()] = true
			}
		}
		for _, entries := range run.outputs {
			for _, e := range entries {
				if held[e.Name.Key()] {
					return 0, false
				}
			}
		}
	}
	c.mutated()
	for f, g := range fresh {
		c.groups[f] = g
	}
	return changed, true
}

// build assembles functor f's group from a run, replacing old or, with
// appendTo, extending it, and counts the rules whose entry list differs
// from old's.
func (c *demandCache) build(f string, run sliceRun, old *group, appendTo bool) (*group, int) {
	g := &group{outputs: map[string][]tree.StoreEntry{}}
	changed := 0
	var lists [][]tree.StoreEntry
	for _, r := range c.slice(f).Construct {
		if r.Head.Functor != f {
			// A dereferenced group: committed under its own functor.
			continue
		}
		entries, kept := run.outputs[r.Name], old.outputs[r.Name]
		if appendTo {
			if len(entries) > 0 {
				changed++
			}
			entries = append(kept[:len(kept):len(kept)], entries...)
		} else if !entriesEqual(kept, entries) {
			changed++
		}
		g.outputs[r.Name] = entries
		lists = append(lists, entries)
	}
	g.bucket = dedup(lists)
	g.index = buildPathIndex(g.bucket)
	return g, changed
}

// dedup concatenates the per-rule entry lists, keeping each identity's
// first occurrence. A rule lists an identity once, so a single list is
// already the bucket and is shared, not copied.
func dedup(lists [][]tree.StoreEntry) []tree.StoreEntry {
	if len(lists) == 1 {
		return lists[0]
	}
	var out []tree.StoreEntry
	seen := map[string]bool{}
	for _, entries := range lists {
		for _, e := range entries {
			if key := e.Name.Key(); !seen[key] {
				seen[key] = true
				out = append(out, e)
			}
		}
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
