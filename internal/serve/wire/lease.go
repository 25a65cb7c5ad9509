package wire

import (
	"strconv"
	"strings"
	"time"
)

// An /ask may also ask for a read lease (Gray and Cheriton's
// leases). A client that sends LeaseRequestHeader with the value "1" is
// asking the server to promise that no write — a reload or a source
// refresh — publishes before LeaseTTL has passed from when the server
// granted it, which is no earlier than the client sent the request. A
// server that can keep that promise grants it on a 200 or 304 reply
// with LeaseHeader, whose value is the server's write epoch
// (AppendEpoch), the one the reply's ETag names: the reply and the
// lease are both under that epoch. The epoch is the one freshness token
// a server hands out: its ETag says a reply is current, a lease on it
// for how long. A write marks itself pending, so that no ask is granted
// a lease from then on, waits until every lease it granted has expired,
// applies and moves to the next epoch. A client that holds a lease at
// epoch E and a reply the server sent under E may therefore answer from
// that reply, without asking, until its own clock says LeaseTTL has
// passed since it sent the request, less a margin for the two clocks'
// rates. A reply without LeaseHeader grants nothing; any other ask, and
// any other value of the request header, is served as it always was.
const (
	LeaseRequestHeader = "Yat-Lease-Request"
	LeaseHeader        = "Yat-Lease"
)

// LeaseTTL is how long a granted lease lasts: how long a client may
// answer without asking, and how long a write may wait for it.
const LeaseTTL = 250 * time.Millisecond

// Epoch is a server's write epoch: a nonce drawn once per process, so
// that a lease binds one server incarnation, and the number of writes
// it has applied. The zero Epoch is none.
type Epoch struct {
	Boot   uint64
	Writes uint64
}

// AppendEpoch appends e as LeaseHeader carries it: the boot nonce in
// lowercase hex, '.', the writes in decimal.
func AppendEpoch(dst []byte, e Epoch) []byte {
	dst = strconv.AppendUint(dst, e.Boot, 16)
	dst = append(dst, '.')
	return strconv.AppendUint(dst, e.Writes, 10)
}

// ParseEpoch reads back an epoch AppendEpoch wrote. ok is false for any
// other value, and for the zero Epoch, which grants nothing.
func ParseEpoch(s string) (e Epoch, ok bool) {
	boot, writes, found := strings.Cut(s, ".")
	var errBoot, errWrites error
	e.Boot, errBoot = strconv.ParseUint(boot, 16, 64)
	e.Writes, errWrites = strconv.ParseUint(writes, 10, 64)
	var buf [48]byte
	if !found || errBoot != nil || errWrites != nil || e.Boot == 0 || string(AppendEpoch(buf[:0], e)) != s {
		return Epoch{}, false
	}
	return e, true
}
