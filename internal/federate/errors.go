package federate

import (
	"fmt"
	"sort"
	"strings"
)

// UnroutableError reports an Ask restricted to a functor no shard of
// the federation owns: the routing table, built from the shard plan
// (or the children's discovered functor sets), has no entry for it.
// It mirrors mediator.NotFoundError — "nothing to do, and the name
// looks wrong" — and is errors.As-able through the yat facade alias.
type UnroutableError struct {
	// Functor is the unroutable functor group.
	Functor string
	// Shards is the number of children consulted.
	Shards int
}

func (e *UnroutableError) Error() string {
	return fmt.Sprintf("federate: functor %q routes to no shard (%d shards)", e.Functor, e.Shards)
}

// FanoutError reports a scatter in which every contacted shard failed
// after its guard chain gave up — there is no partial result left to
// degrade to. Per-shard errors are keyed by shard name, mirroring
// mediator.FetchError's all-sources-failed shape.
type FanoutError struct {
	Errs map[string]error
}

func (e *FanoutError) Error() string {
	names := make([]string, 0, len(e.Errs))
	for n := range e.Errs {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s: %v", n, e.Errs[n])
	}
	return "federate: all shards failed: " + strings.Join(parts, "; ")
}

// ClosedError reports an ask issued to a shard client after its Close:
// the caller has declared the child retired, so the federation fails
// the call deterministically instead of racing a torn-down transport.
type ClosedError struct {
	// Shard is the client's display name.
	Shard string
}

func (e *ClosedError) Error() string {
	return fmt.Sprintf("federate: shard client %s is closed", e.Shard)
}

// RemoteError is a response from a remote shard the client could not
// use: a non-2xx one, carrying the wire error code so the parent can
// reason about the child's failure mode without string matching, or a
// reply too large to read ("reply_too_large", whatever its status).
type RemoteError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable wire error code ("timeout", "parse_error", ...).
	Code string
	// Message is the child's error message.
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote shard: %s (%s, http %d)", e.Message, e.Code, e.Status)
}
