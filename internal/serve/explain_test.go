package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"yat/internal/federate"
	"yat/internal/mediator"
	"yat/internal/serve/wire"
	"yat/internal/source"
	"yat/internal/trace"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// TestNewNeedsInputs: a server that builds its own mediator needs an
// input store or sources to read, and New refuses one with neither,
// where it used to build a server whose every ask panicked.
func TestNewNeedsInputs(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	store := workload.BrochureStore(4, 2, 4, 11)
	if _, err := New(Config{Prog: prog}); err == nil {
		t.Fatal("New accepted a program with no inputs, sources or askers")
	}
	for i, cfg := range []Config{
		{Prog: prog, Inputs: store},
		{Prog: prog, Sources: []source.Source{source.Static("src1", store)}},
		{Askers: []mediator.Asker{mediator.New(prog, store)}},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

// explained is one explained ask's reply, decoded, with its profile.
func explained(t *testing.T, base string, req wire.AskRequest) (wire.AskResponse, trace.Document) {
	t.Helper()
	resp, body := rawAsk(t, base, "?explain=1", req)
	var out wire.AskResponse
	if err := json.Unmarshal(body, &out); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("explained ask: status %d (%v): %s", resp.StatusCode, err, body)
	}
	var doc trace.Document
	if err := json.Unmarshal(out.Profile, &doc); err != nil {
		t.Fatalf("profile: %v: %s", err, out.Profile)
	}
	return out, doc
}

// TestExplainServesTheServedWorld: an explained ask answers what the
// plain ask answers, under the same generation, and fetches nothing —
// while a source has moved but is not yet refreshed, after the refresh,
// and after a reload.
func TestExplainServesTheServedWorld(t *testing.T) {
	parts := workload.SplitStore(workload.BrochureStore(6, 2, 5, 11), 2)
	fault := source.NewFault("src1", parts[0])
	_, ts := newTestServer(t, Config{
		Prog:    yatl.MustParse(versionedSelective("v1")),
		Sources: []source.Source{fault, source.Static("src2", parts[1])},
	})
	req := wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}}
	check := func(when string, generation int64) {
		t.Helper()
		_, plain := postAsk(t, ts.URL, req)
		calls := fault.Calls()
		out, _ := explained(t, ts.URL, req)
		if out.Generation != plain.Generation || out.Generation != generation {
			t.Errorf("%s: explained generation %d, plain %d, want %d", when, out.Generation, plain.Generation, generation)
		}
		if plain.Count == 0 || out.Count != plain.Count || !reflect.DeepEqual(out.Answers, plain.Answers) {
			t.Errorf("%s: explained answers differ from the plain ask's\n got %+v\nwant %+v", when, out.Answers, plain.Answers)
		}
		if n := fault.Calls() - calls; n != 0 {
			t.Errorf("%s: the explained ask fetched src1 %d times", when, n)
		}
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}

	check("warm", 1)
	fault.SetStore(workload.SplitStore(parts[0], 3)[0])
	check("moved, not refreshed", 1)
	post("/admin/refresh-source/src1", "")
	check("refreshed", 1)
	post("/admin/reload", versionedSelective("v2"))
	check("reloaded", 2)
}

// TestExplainFederatedParent: a parent federation over remote children,
// assembled as yatserve assembles one — the federation its one asker,
// the program given, no inputs — explains an ask with its own layers:
// a 200 with the plain ask's answers and a profile listing its shard
// asks.
func TestExplainFederatedParent(t *testing.T) {
	prog := yatl.MustParse(workload.SelectiveProgram(4))
	inputs := workload.BrochureStore(4, 2, 4, 11)
	var children []federate.Child
	for _, p := range federate.PlanShards(prog, 2) {
		_, child := newTestServer(t, Config{Prog: p.Prog, Inputs: inputs})
		children = append(children, federate.Child{Asker: shardClient(t, child.URL)})
	}
	fed, err := federate.New(federate.Config{Programs: []*yatl.Program{prog}, Children: children})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Askers: []mediator.Asker{fed}, Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	req := wire.AskRequest{Pattern: "X"}
	out, doc := explained(t, ts.URL, req)
	_, plain := postAsk(t, ts.URL, req)
	if plain.Count == 0 || !reflect.DeepEqual(out.Answers, plain.Answers) || out.Generation != plain.Generation {
		t.Errorf("explained reply differs from the plain ask's\n got %d %+v\nwant %d %+v", out.Generation, out.Answers, plain.Generation, plain.Answers)
	}
	if len(doc.Shards) != len(children) {
		t.Fatalf("profile lists shards %+v, want one per child (%d)", doc.Shards, len(children))
	}
	for _, sh := range doc.Shards {
		if sh.Asks != 1 || sh.Degraded != 0 {
			t.Errorf("shard %s: %d asks, %d degraded; want one ask answered", sh.Shard, sh.Asks, sh.Degraded)
		}
	}
}
