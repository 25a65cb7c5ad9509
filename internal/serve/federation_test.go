package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// newFederatedServer fronts an in-process federation with the serve
// pool: one router lane, cfg.Askers mode.
func newFederatedServer(t *testing.T, shards int) (*federate.Federation, *Server, string) {
	t.Helper()
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 11)
	fed, err := federate.New(federate.Config{
		Programs: []*yatl.Program{prog},
		Shards:   shards,
		Inputs:   inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Askers: []mediator.Asker{fed},
		Prog:   prog,
		Inputs: inputs,
	})
	return fed, s, ts.URL
}

func TestFederatedServerAsk(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, out := postAsk(t, url, wire.AskRequest{Pattern: "X", Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Count == 0 {
		t.Fatal("federated ask returned no answers")
	}
	for _, a := range out.Answers {
		if !strings.HasPrefix(a.Name, "Pview1(") {
			t.Errorf("answer outside the asked functor: %s", a.Name)
		}
	}
}

func TestFederatedServerUnroutable(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, _ := postAsk(t, url, wire.AskRequest{Pattern: "X", Functors: []string{"Pnope"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "unroutable_functor" {
		t.Errorf("code %q, want unroutable_functor", e.Code)
	}
}

func TestFederatedServerHealthzShards(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc wire.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Errorf("status %q, want ok", doc.Status)
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("healthz lists %d shards, want 2: %+v", len(doc.Shards), doc.Shards)
	}
	for _, sh := range doc.Shards {
		if !sh.Healthy {
			t.Errorf("shard %s unhealthy at rest: %+v", sh.Name, sh)
		}
	}
}

func TestFederatedServerStatsShards(t *testing.T) {
	_, _, url := newFederatedServer(t, 2)
	if resp, _ := postAsk(t, url, wire.AskRequest{Pattern: "X"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up ask status %d", resp.StatusCode)
	}
	resp, err := http.Get(url + "/stats?timing=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Mediator.Shards) != 2 {
		t.Fatalf("stats list %d shards, want 2", len(doc.Mediator.Shards))
	}
	for _, sh := range doc.Mediator.Shards {
		if sh.Asks == 0 {
			t.Errorf("shard %s saw no asks after the warm-up", sh.Name)
		}
	}
	if doc.Server.Pool != 1 {
		t.Errorf("pool = %d, want 1 (the federation router is the lane)", doc.Server.Pool)
	}
}

func TestFederatedServerReloadUnsupported(t *testing.T) {
	fed, _, url := newFederatedServer(t, 2)
	resp, err := http.Post(url+"/admin/reload", "text/plain",
		strings.NewReader(workload.SelectiveProgram(2)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "reload_unsupported" {
		t.Errorf("code %q, want reload_unsupported", e.Code)
	}
	// The federation kept serving the original program.
	if _, err := fed.Ask("X", "Pview4"); err != nil {
		t.Errorf("federation broken after rejected reload: %v", err)
	}
}

func TestFederatedServerRefreshUnsupported(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(2))
	inputs := workload.BrochureStore(2, 1, 2, 3)
	fed, err := federate.New(federate.Config{
		Programs: []*yatl.Program{prog}, Shards: 2, Inputs: inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Declare a source so the name check passes and the lane-capability
	// check is what answers.
	_, ts := newTestServer(t, Config{
		Askers:  []mediator.Asker{fed},
		Prog:    prog,
		Sources: []source.Source{source.Static("src1", inputs)},
	})
	resp, err := http.Post(ts.URL+"/admin/refresh-source/src1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != "refresh_unsupported" {
		t.Errorf("code %q, want refresh_unsupported", e.Code)
	}
}

// TestAskKeysParameter pins the ?keys=1 contract the shard client
// relies on: keys appear when asked for, never otherwise.
func TestAskKeysParameter(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	resp, out := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, a := range out.Answers {
		if a.Key != "" {
			t.Fatalf("key present without ?keys=1: %+v", a)
		}
	}
	// postAsk appends /ask itself; issue the keyed request directly.
	body := `{"pattern": "` + tagPattern + `", "functors": ["Pview1"]}`
	r, err := http.Post(ts.URL+"/ask?keys=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var keyed wire.AskResponse
	if err := json.NewDecoder(r.Body).Decode(&keyed); err != nil {
		t.Fatal(err)
	}
	if keyed.Count == 0 {
		t.Fatal("keyed ask returned no answers")
	}
	for _, a := range keyed.Answers {
		if a.Key == "" {
			t.Fatalf("key missing under ?keys=1: %+v", a)
		}
		if !strings.Contains(a.Key, "\x00") {
			t.Errorf("key %q lacks the name/binding separator", a.Key)
		}
	}
}
