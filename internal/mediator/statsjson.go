// The one stats document and the one fold over it. Stats (mediator.go)
// is its own wire form: yatprof -stats, yatserve's GET /stats and the
// remote shard client marshal, render or decode the value itself, so
// they cannot drift into rival formatters. A new counter is one tagged
// field on Stats, one line in Aggregate and one in Render.
package mediator

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// StatsView is the former name of the wire document, kept only because
// the frozen bench/ package still spells it.
type StatsView = Stats

// plainStats is Stats without its methods, so the marshalers below can
// delegate to the struct encoding without recursing.
type plainStats Stats

// MarshalJSON is the tagged struct encoding with Err as its message.
// The leading fields shadow the embedded ones only to keep "err" where
// the document has always carried it, right after "materialized".
func (s Stats) MarshalJSON() ([]byte, error) {
	doc := struct {
		Generation   int64  `json:"generation"`
		Materialized bool   `json:"materialized"`
		Err          string `json:"err,omitempty"`
		plainStats
	}{Generation: s.Generation, Materialized: s.Materialized, plainStats: plainStats(s)}
	if s.Err != nil {
		doc.Err = s.Err.Error()
	}
	return json.Marshal(doc)
}

// UnmarshalJSON inverts MarshalJSON; an "err" message comes back as an
// opaque error carrying that text. It is how a federation reads a
// remote child's GET /stats, to Aggregate it like a local child's.
func (s *Stats) UnmarshalJSON(data []byte) error {
	doc := struct {
		Err string `json:"err"`
		*plainStats
	}{plainStats: (*plainStats)(s)}
	err := json.Unmarshal(data, &doc)
	if err == nil && doc.Err != "" {
		s.Err = errors.New(doc.Err)
	}
	return err
}

// Untimed returns a copy with the one wall-clock field, AskTime,
// zeroed, hence omitted from JSON: the rest is deterministic for a
// given program and ask sequence.
func (s Stats) Untimed() Stats {
	s.AskTime = 0
	return s
}

// JSON renders the snapshot as indented JSON, Untimed unless timing.
func (s Stats) JSON(timing bool) ([]byte, error) {
	if !timing {
		s = s.Untimed()
	}
	return json.MarshalIndent(s, "", "  ")
}

// Render writes the snapshot as a human-oriented text table.
func (s Stats) Render(w io.Writer, timing bool) error {
	mode := "full"
	if s.Demand {
		mode = "demand"
	}
	if s.Restored {
		mode += ", restored"
	}
	if _, err := fmt.Fprintf(w, "mediator stats (generation %d, %s mode)\n", s.Generation, mode); err != nil {
		return err
	}
	fmt.Fprintf(w, "  materialized: %v", s.Materialized)
	if s.Err != nil {
		fmt.Fprintf(w, "  err: %s", s.Err)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  asks: %d  hits: %d  memo-hits: %d  misses: %d", s.Asks, s.CacheHits, s.MemoHits, s.CacheMisses)
	if timing {
		fmt.Fprintf(w, "  ask-time: %.3fms", float64(s.AskTime)/float64(time.Millisecond))
	}
	fmt.Fprintln(w)
	if s.Demand {
		fmt.Fprintf(w, "  cached-rules: %d  slice-runs: %d\n", s.CachedRules, s.SliceRuns)
		fmt.Fprintf(w, "  memo: entries=%d bytes=%d\n", s.MemoEntries, s.MemoBytes)
		fmt.Fprintf(w, "  replays: memo=%d leased=%d not-modified=%d\n", s.MemoReplays, s.LeasedReplays, s.NotModified)
		fmt.Fprintf(w, "  deltas: runs=%d fallbacks=%d patched-rules=%d\n",
			s.DeltaRuns, s.DeltaFallbacks, s.PatchedRules)
	}
	fmt.Fprintf(w, "  run: activations=%d bindings=%d outputs=%d rounds=%d\n",
		s.Run.Activations, s.Run.Bindings, s.Run.Outputs, s.Run.Rounds)
	for _, src := range s.Sources {
		fmt.Fprintf(w, "  source %s: attempts=%d failures=%d retries=%d entries=%d",
			src.Name, src.Attempts, src.Failures, src.Retries, src.Entries)
		if src.BreakerState != "" {
			fmt.Fprintf(w, " breaker=%s", src.BreakerState)
		}
		if src.FetchErr != "" {
			fmt.Fprintf(w, " fetch-err=%q", src.FetchErr)
		}
		fmt.Fprintln(w)
	}
	for _, sh := range s.Shards {
		kind := "local"
		if sh.Remote {
			kind = "remote"
		}
		fmt.Fprintf(w, "  shard %s (%s): functors=%d asks=%d failures=%d healthy=%v",
			sh.Name, kind, sh.Functors, sh.Asks, sh.Failures, sh.Healthy)
		if sh.Breaker != "" {
			fmt.Fprintf(w, " breaker=%s", sh.Breaker)
		}
		if sh.LastErr != "" {
			fmt.Fprintf(w, " last-err=%q", sh.LastErr)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Aggregate is the one fold over stats snapshots — a pool's lanes, a
// federation's children. Counters sum, Materialized and Restored are
// conjunctions, Generation is the minimum (the number every lane
// reaches once a reload settles), Err is the first non-nil. Sources
// merge by name in first-seen order: the chain counters are shared by
// all lanes and taken once, while FetchErr and Entries are one lane's
// latest fetch — any lane may never have fetched — so the first
// non-empty FetchErr and the largest Entries win. Shards are each
// snapshot's own children and concatenate. No slice is shared with ss.
func Aggregate(ss ...Stats) Stats {
	if len(ss) == 0 {
		return Stats{}
	}
	out := ss[0]
	out.Sources, out.Shards = nil, nil
	for i, s := range ss {
		if i > 0 {
			out.Generation = min(out.Generation, s.Generation)
			out.Materialized = out.Materialized && s.Materialized
			out.Err = cmp.Or(out.Err, s.Err)
			out.Restored = out.Restored && s.Restored
			out.Asks += s.Asks
			out.CacheHits += s.CacheHits
			out.CacheMisses += s.CacheMisses
			out.MemoHits += s.MemoHits
			out.MemoEntries += s.MemoEntries
			out.MemoBytes += s.MemoBytes
			out.MemoReplays += s.MemoReplays
			out.LeasedReplays += s.LeasedReplays
			out.NotModified += s.NotModified
			out.AskTime += s.AskTime
			out.CachedRules += s.CachedRules
			out.SliceRuns += s.SliceRuns
			out.DeltaRuns += s.DeltaRuns
			out.DeltaFallbacks += s.DeltaFallbacks
			out.PatchedRules += s.PatchedRules
			out.Run.Add(s.Run)
		}
		for _, src := range s.Sources {
			j := slices.IndexFunc(out.Sources, func(o SourceStatus) bool { return o.Name == src.Name })
			if j < 0 {
				out.Sources = append(out.Sources, src)
				continue
			}
			have := &out.Sources[j]
			have.FetchErr = cmp.Or(have.FetchErr, src.FetchErr)
			have.Entries = max(have.Entries, src.Entries)
		}
		out.Shards = append(out.Shards, s.Shards...)
	}
	return out
}
