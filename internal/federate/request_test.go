package federate

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"yat/internal/serve/wire"
)

// TestClientAskRequestAllocs: an ask's request is built from the URL
// NewClient parsed once, and goes on the wire as the request
// http.NewRequestWithContext makes of the joined URL string, for three
// allocations fewer (9 and 6 with Go 1.24): no URL string is joined or
// parsed, and the Content-Type value is shared. A base URL that does
// not parse fails every ask as the joined one would.
func TestClientAskRequestAllocs(t *testing.T) {
	c := NewClient("http://127.0.0.1:8081/", nil)
	t.Cleanup(c.Close)
	body := wire.AppendAskRequest(nil, wire.AskRequest{Pattern: "X", Functors: []string{"Pview1"}})
	ctx := context.Background()
	parse := func() *http.Request {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ask?keys=1", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		return req
	}
	written := func(req *http.Request) []byte {
		var buf bytes.Buffer
		if err := req.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	epoch := wire.Epoch{Boot: 0x9f3c, Writes: 17}
	for i, tag := range []wire.Epoch{{}, epoch, epoch} {
		leased := i == 2
		ref := parse()
		if tag != (wire.Epoch{}) {
			ref.Header.Set("If-None-Match", `"9f3c.17"`)
		}
		if leased {
			ref.Header.Set(wire.LeaseRequestHeader, "1")
		}
		req, err := c.askRequest(ctx, body, tag, leased)
		if err != nil {
			t.Fatal(err)
		}
		again, err := req.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		resent, _ := io.ReadAll(again)
		if got, want := written(req), written(ref); !bytes.Equal(got, want) || !bytes.Equal(resent, body) || req.Context() != ctx {
			t.Errorf("tag %+v, leased %v: request\n%s\nresent body %q; want\n%s", tag, leased, got, resent, want)
		}
	}
	parsed := testing.AllocsPerRun(100, func() { parse() })
	built := testing.AllocsPerRun(100, func() {
		if _, err := c.askRequest(ctx, body, wire.Epoch{}, false); err != nil {
			t.Fatal(err)
		}
	})
	if built > 6 || parsed-built < 3 {
		t.Errorf("an ask's request: %v allocations, %v parsing its URL; want <= 6 and 3 fewer", built, parsed)
	}

	bad := NewClient("http://127.0.0.1:8081/%zz", nil)
	t.Cleanup(bad.Close)
	_, want := http.NewRequestWithContext(ctx, http.MethodPost, bad.base+"/ask?keys=1", nil)
	if _, err := bad.askRequest(ctx, body, wire.Epoch{}, false); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("a base URL that does not parse: error %v, want %v", err, want)
	}
}
