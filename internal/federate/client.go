package federate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yat/internal/mediator"
	"yat/internal/serve/wire"
)

// Client is a remote federation child: a mediator.Asker over a
// yatserve instance, speaking the exact wire format the server serves
// (internal/serve/wire). Asks always request producer-computed merge
// keys (?keys=1), so a parent federation merges this child's answers
// in the child's own canonical order even when a display form is
// exotic. Replies are read by wire.DecodeAskResponse — one validating
// pass, no reflection — and each answer carries the child's rendered
// members with it; a parent Federation serving /ask reads them with
// wire.RelayAskResponse instead, which checks the same and parses none
// of what it forwards. A Client carries no per-request state and is
// safe for concurrent use.
type Client struct {
	base string
	// askURL is base's /ask?keys=1, parsed once: every ask's request
	// shares it, and nothing writes it. askErr is why it did not parse,
	// which every ask then fails with.
	askURL *url.URL
	askErr error
	name   string
	http   *http.Client
	// ownsHTTP records whether NewClient built the http.Client itself.
	// Close tears down connection pools only for owned clients — a
	// caller-supplied ClientOptions.HTTPClient may be shared with the
	// rest of the process and is never the federation's to drain.
	ownsHTTP bool
	closed   atomic.Bool
	gen      atomic.Int64
	// lease is the last read lease the child granted (the wire
	// package's lease contract), nil before the first.
	lease atomic.Pointer[lease]
}

// lease is a read lease as the client holds it: the child's write
// epoch, and when the lease expires on the client's monotonic clock.
type lease struct {
	epoch wire.Epoch
	until time.Time
}

// leaseMargin is what a client takes off a lease's LeaseTTL, counted
// from when it sent the request, for the two clocks' rates: a child
// whose clock runs slower than the client's by less than a tenth still
// holds its writes past the client's expiry.
const leaseMargin = wire.LeaseTTL / 10

// holds says whether the client holds an unexpired lease at epoch e.
func (c *Client) holds(e wire.Epoch, now time.Time) bool {
	l := c.lease.Load()
	return l != nil && l.epoch == e && now.Before(l.until) && !c.closed.Load()
}

var _ mediator.Asker = (*Client)(nil)

// ClientOptions tunes NewClient.
type ClientOptions struct {
	// HTTPClient overrides the transport; nil means a dedicated
	// http.Client with no global timeout — deadlines come from the
	// federation guard's per-call context.
	HTTPClient *http.Client
}

// NewClient builds a shard client over a yatserve base URL
// (e.g. "http://10.0.0.7:8080").
func NewClient(base string, opts *ClientOptions) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	if opts != nil {
		c.http = opts.HTTPClient
	}
	c.askURL, c.askErr = url.Parse(c.base + "/ask?keys=1")
	c.name = c.base
	if c.askErr == nil && c.askURL.Host != "" {
		c.name = c.askURL.Host
	}
	if c.http == nil {
		c.http = &http.Client{}
		c.ownsHTTP = true
	}
	return c
}

// Name is the client's display name for stats and errors.
func (c *Client) Name() string { return c.name }

// Close marks the client closed — subsequent asks fail with a typed
// *ClosedError instead of racing a torn-down transport — and releases
// idle connections, but only when the client owns its http.Client; a
// transport supplied through ClientOptions belongs to the caller and
// keeps its connection pool. Close is idempotent.
func (c *Client) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.ownsHTTP {
		c.http.CloseIdleConnections()
	}
}

// Ask implements Asker.
func (c *Client) Ask(patternSrc string, functors ...string) ([]mediator.Answer, error) {
	return c.AskContext(context.Background(), patternSrc, functors...)
}

// AskContext POSTs /ask?keys=1 and decodes the reply into typed
// answers: names and binding values re-parse from their display
// rendering (tree.ParseName/ParseValue are its inverses), and the
// producer's merge key and rendered members ride along inside each
// Answer. A reply the decoder refuses — malformed, an unparseable
// display form, a count that disagrees with the answers carried — fails
// the ask, so the federation degrades this shard rather than serve a
// short or doubtful stream.
func (c *Client) AskContext(ctx context.Context, patternSrc string, functors ...string) ([]mediator.Answer, error) {
	_, answers, err := c.ask(ctx, patternSrc, functors, wire.DecodeAskResponse)
	return answers, err
}

// ask is AskContext reading the reply with decode — a Federation's
// AskReply reads it with wire.RelayAskResponse — and returning the
// generation the reply carried.
func (c *Client) ask(ctx context.Context, patternSrc string, functors []string,
	decode func([]byte) (int64, []mediator.Answer, error)) (int64, []mediator.Answer, error) {
	reply, _, err := c.fetchAsk(ctx, patternSrc, functors, wire.Epoch{}, false)
	if err != nil {
		return 0, nil, err
	}
	defer reply.release()
	return c.readAsk(reply.b, decode)
}

// fetchAsk POSTs /ask?keys=1 and returns the reply unread, in a pooled
// buffer the caller releases once it is done with the bytes. With a
// non-zero tag the ask is conditional on that write epoch (the wire
// package's conditional /ask): a child still at that epoch answers
// 304, and fetchAsk returns a nil reply and no error. A child that
// ignores the header answers in full. With leased set the ask requests
// a read lease, and epoch is the write epoch the reply's ETag names,
// zero when it names none.
func (c *Client) fetchAsk(ctx context.Context, patternSrc string, functors []string, tag wire.Epoch, leased bool) (reply *replyBuf, epoch wire.Epoch, err error) {
	req, err := c.askRequest(ctx, wire.AppendAskRequest(nil, wire.AskRequest{Pattern: patternSrc, Functors: functors}), tag, leased)
	if err != nil {
		return nil, epoch, err
	}
	return c.send(req, tag != wire.Epoch{}, leased)
}

// askRequest builds the POST of an ask body to askURL, parsing nothing.
func (c *Client) askRequest(ctx context.Context, body []byte, tag wire.Epoch, leased bool) (*http.Request, error) {
	if c.askErr != nil {
		return nil, c.askErr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           c.askURL,
		Header:        http.Header{"Content-Type": jsonContentType},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		// As http.NewRequest sets it: a request that wrote nothing on a
		// reused connection the child had closed is sent again.
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}
	if tag != (wire.Epoch{}) {
		var buf [48]byte
		quoted := append(wire.AppendEpoch(append(buf[:0], '"'), tag), '"')
		req.Header["If-None-Match"] = []string{string(quoted)}
	}
	if leased {
		req.Header[wire.LeaseRequestHeader] = leaseRequest
	}
	return req.WithContext(ctx), nil
}

// jsonContentType and leaseRequest are header values requests share and
// nothing writes.
var (
	jsonContentType = []string{"application/json"}
	leaseRequest    = []string{"1"}
)

// readAsk reads a reply fetchAsk returned with decode and notes the
// generation it carried.
func (c *Client) readAsk(data []byte, decode func([]byte) (int64, []mediator.Answer, error)) (int64, []mediator.Answer, error) {
	generation, answers, err := decode(data)
	if err != nil {
		return 0, nil, fmt.Errorf("shard %s: %w", c.name, err)
	}
	c.gen.Store(generation)
	return generation, answers, nil
}

// introspectTimeout bounds Functors and Stats. Asker hands neither a
// context, and Stats runs outside the federation's guard chain — behind
// the parent's /stats and /healthz — so without a bound of their own a
// hung child hangs the parent's liveness endpoint with it.
const introspectTimeout = 2 * time.Second

func (c *Client) introspect(path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), introspectTimeout)
	defer cancel()
	reply, err := c.do(ctx, http.MethodGet, path)
	if err != nil {
		return err
	}
	defer reply.release()
	if err := json.Unmarshal(reply.b, out); err != nil {
		return fmt.Errorf("shard %s: decoding response: %w", c.name, err)
	}
	return nil
}

// Functors implements Asker via GET /functors.
func (c *Client) Functors() ([]string, error) {
	var out wire.FunctorsResponse
	if err := c.introspect("/functors", &out); err != nil {
		return nil, err
	}
	c.gen.Store(out.Generation)
	return out.Functors, nil
}

// Stats implements Asker: GET /stats?timing=0 decodes straight into
// the Stats it was marshaled from, so a federation aggregates a remote
// child with the same fold it uses for a local one. A failed fetch
// yields a snapshot whose Err carries the transport error.
func (c *Client) Stats() mediator.Stats {
	var out wire.StatsResponse
	if err := c.introspect("/stats?timing=0", &out); err != nil {
		return mediator.Stats{Err: err, Generation: c.Generation()}
	}
	c.gen.Store(out.Mediator.Generation)
	return out.Mediator
}

// Generation is the last generation observed on any response (1
// before the first).
func (c *Client) Generation() int64 {
	if g := c.gen.Load(); g > 0 {
		return g
	}
	return 1
}

// do runs one round trip of a request without a body, and returns the
// reply as send does.
func (c *Client) do(ctx context.Context, method, path string) (*replyBuf, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	reply, _, err := c.send(req, false, false)
	return reply, err
}

// send runs one round trip and returns the 2xx reply's body in a pooled
// buffer the caller releases. Non-2xx responses decode the wire error
// envelope into a typed *RemoteError. A 304 is a nil reply when the
// request was conditional, and a *RemoteError when it was not: it
// cannot stand for a reply the client never named. With leased set, a
// lease granted with a 200 or a 304 is recorded as the client's, to
// expire LeaseTTL less leaseMargin after the request was sent, and
// epoch is the write epoch the reply's ETag names.
func (c *Client) send(req *http.Request, conditional, leased bool) (reply *replyBuf, epoch wire.Epoch, err error) {
	if c.closed.Load() {
		return nil, epoch, &ClosedError{Shard: c.name}
	}
	sent := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, epoch, fmt.Errorf("shard %s: %w", c.name, err)
	}
	defer resp.Body.Close()
	if leased && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified && conditional) {
		if v := resp.Header[wire.LeaseHeader]; len(v) == 1 {
			if e, ok := wire.ParseEpoch(v[0]); ok {
				c.lease.Store(&lease{epoch: e, until: sent.Add(wire.LeaseTTL - leaseMargin)})
			}
		}
		if v := resp.Header["Etag"]; len(v) == 1 && len(v[0]) > 2 && v[0][0] == '"' && v[0][len(v[0])-1] == '"' {
			epoch, _ = wire.ParseEpoch(v[0][1 : len(v[0])-1])
		}
	}
	if resp.StatusCode == http.StatusNotModified {
		if conditional {
			return nil, epoch, nil
		}
		return nil, epoch, &RemoteError{Status: resp.StatusCode, Code: "not_modified",
			Message: "304 Not Modified to an ask that named no reply"}
	}
	reply, err = readReply(resp, maxReplyBytes)
	if err != nil {
		return nil, epoch, fmt.Errorf("shard %s: reading response: %w", c.name, err)
	}
	if resp.StatusCode/100 != 2 {
		defer reply.release()
		var envelope wire.ErrorResponse
		if json.Unmarshal(reply.b, &envelope) == nil && envelope.Error.Code != "" {
			return nil, epoch, &RemoteError{Status: resp.StatusCode, Code: envelope.Error.Code, Message: envelope.Error.Message}
		}
		return nil, epoch, &RemoteError{Status: resp.StatusCode, Code: "http_error",
			Message: strings.TrimSpace(string(reply.b))}
	}
	return reply, epoch, nil
}

// maxReplyBytes caps the reply a Client reads from its child.
const maxReplyBytes = 64 << 20

// replyBuf is one pooled reply buffer. Nothing read from a reply points
// into it — both ask decoders and encoding/json copy what they keep —
// so it goes back to replyBufs once its reader is done.
type replyBuf struct{ b []byte }

// replyBufs pools the reply buffers. A buffer past maxPooledReply is
// dropped instead of returned, so one huge reply cannot pin its memory
// on every P for the life of the process.
var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

const maxPooledReply = 64 << 10

func (r *replyBuf) release() {
	if cap(r.b) <= maxPooledReply {
		r.b = r.b[:0]
		replyBufs.Put(r)
	}
}

// readReply reads a response body of at most limit bytes into a pooled
// buffer. A child that states its Content-Length (yatserve does, for
// every ask reply) is read in one piece into a buffer of at least that
// size; one that does not is read as it comes. A body past the limit
// is a typed *RemoteError (reply_too_large), never a silently cut one.
func readReply(resp *http.Response, limit int64) (*replyBuf, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, tooLarge(resp, limit)
	}
	reply := replyBufs.Get().(*replyBuf)
	var err error
	if n >= 0 {
		reply.b = slices.Grow(reply.b[:0], int(n))[:n]
		_, err = io.ReadFull(resp.Body, reply.b)
	} else {
		buf := bytes.NewBuffer(reply.b[:0])
		_, err = buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
		reply.b = buf.Bytes()
		if err == nil && int64(len(reply.b)) > limit {
			err = tooLarge(resp, limit)
		}
	}
	if err != nil {
		reply.release()
		return nil, err
	}
	return reply, nil
}

func tooLarge(resp *http.Response, limit int64) error {
	return &RemoteError{Status: resp.StatusCode, Code: "reply_too_large",
		Message: fmt.Sprintf("reply exceeds %d bytes", limit)}
}
