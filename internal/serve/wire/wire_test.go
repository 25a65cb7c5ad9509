package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/tree"
)

// TestWireByteStability pins the JSON field names and order of every
// wire document. These bytes are the protocol: yatserve emits them,
// the shard client and yatload parse them, and the CI gates diff
// them. A failure here means a wire-contract break — add fields at
// the end with omitempty, never rename or reorder.
func TestWireByteStability(t *testing.T) {
	cases := []struct {
		name string
		doc  any
		want string
	}{
		{
			"ask_request",
			AskRequest{Pattern: "X", Functors: []string{"Psup"}},
			`{"pattern":"X","functors":["Psup"]}`,
		},
		{
			"ask_answer_bare",
			AskAnswer{Name: "Psup(\"VW\")"},
			`{"name":"Psup(\"VW\")"}`,
		},
		{
			"ask_answer_keyed",
			AskAnswer{Name: "Psup(\"VW\")", Binding: map[string]string{"N": `"VW"`}, Key: "k"},
			`{"name":"Psup(\"VW\")","binding":{"N":"\"VW\""},"key":"k"}`,
		},
		{
			"ask_response",
			AskResponse{Generation: 1, Count: 0, Answers: []AskAnswer{}},
			`{"generation":1,"count":0,"answers":[]}`,
		},
		{
			"error_envelope",
			ErrorResponse{Error: ErrorBody{Code: "parse_error", Message: "boom"}},
			`{"error":{"code":"parse_error","message":"boom"}}`,
		},
		{
			"functors",
			FunctorsResponse{Functors: []string{"Pcar"}, Generation: 2},
			`{"functors":["Pcar"],"generation":2}`,
		},
		{
			"server_stats",
			ServerStats{Pool: 4, Inflight: 1, Served: 2, Failed: 3, Reloads: 4, LeaseWaits: 5},
			`{"pool":4,"inflight":1,"served":2,"failed":3,"reloads":4,"lease_waits":5}`,
		},
		{
			"source_health",
			SourceHealth{Name: "s1", Healthy: true, Entries: 7},
			`{"name":"s1","healthy":true,"entries":7}`,
		},
		{
			"shard_health",
			ShardHealth{Name: "shard0", Healthy: false, Breaker: "open", LastErr: "down"},
			`{"name":"shard0","healthy":false,"breaker":"open","last_err":"down"}`,
		},
		{
			"health_plain",
			HealthResponse{Generation: 1, Program: "p", Sources: []SourceHealth{}, Status: "ok"},
			`{"generation":1,"program":"p","sources":[],"status":"ok"}`,
		},
		{
			"server_stats_snapshot",
			ServerStats{Pool: 1, Snapshot: &SnapshotStatus{
				Path: "/tmp/s.json", Restored: true, Saves: 2}},
			`{"pool":1,"inflight":0,"served":0,"failed":0,"reloads":0,"lease_waits":0,` +
				`"snapshot":{"path":"/tmp/s.json","restored":true,"saves":2}}`,
		},
		{
			"snapshot_status_fallback",
			SnapshotStatus{Path: "/tmp/s.json", FallbackReason: "checksum",
				LastSaveErr: "disk full"},
			`{"path":"/tmp/s.json","restored":false,"fallback_reason":"checksum",` +
				`"saves":0,"last_save_err":"disk full"}`,
		},
		{
			"snapshot_response",
			SnapshotResponse{Path: "/tmp/s.json", Generation: 3, Bytes: 512},
			`{"path":"/tmp/s.json","generation":3,"bytes":512}`,
		},
		{
			"health_snapshot",
			HealthResponse{Generation: 1, Program: "p", Sources: []SourceHealth{}, Status: "ok",
				Snapshot: &SnapshotStatus{Path: "s", Restored: true, Saves: 1}},
			`{"generation":1,"program":"p","sources":[],"status":"ok",` +
				`"snapshot":{"path":"s","restored":true,"saves":1}}`,
		},
		{
			"health_federated",
			HealthResponse{Generation: 1, Program: "p", Sources: []SourceHealth{}, Status: "degraded",
				Shards: []ShardHealth{{Name: "shard0", Healthy: true}}},
			`{"generation":1,"program":"p","sources":[],"status":"degraded",` +
				`"shards":[{"name":"shard0","healthy":true}]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.want {
				t.Errorf("wire bytes drifted:\n got %s\nwant %s", data, tc.want)
			}
		})
	}
}

// TestStatsResponseKeyOrder pins that the stats document keeps the
// historical key order: "mediator" before "server" (alphabetical, as
// when the document was built from a map).
func TestStatsResponseKeyOrder(t *testing.T) {
	data, err := json.Marshal(StatsResponse{})
	if err != nil {
		t.Fatal(err)
	}
	med := indexOf(data, `"mediator"`)
	srv := indexOf(data, `"server"`)
	if med < 0 || srv < 0 || med > srv {
		t.Errorf("key order drifted: %s", data)
	}
	// The mediator half round-trips through the shared view type.
	var doc struct {
		Mediator mediator.StatsView `json:"mediator"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
}

func indexOf(data []byte, sub string) int {
	for i := 0; i+len(sub) <= len(data); i++ {
		if string(data[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}

// oracleAskResponse is the encoder AppendAskResponse replaced — the
// server's former wireAnswers plus json.Marshal of the struct — kept
// as the reference the append encoder must match byte for byte.
func oracleAskResponse(t testing.TB, generation int64, answers []mediator.Answer, keyed bool, profile json.RawMessage) []byte {
	t.Helper()
	out := make([]AskAnswer, 0, len(answers))
	for _, a := range answers {
		wa := AskAnswer{Name: a.Name.String()}
		if len(a.Binding) > 0 {
			wa.Binding = make(map[string]string, len(a.Binding))
			for k, v := range a.Binding {
				wa.Binding[k] = v.Display()
			}
		}
		if keyed {
			wa.Key = a.MergeKey()
		}
		out = append(out, wa)
	}
	data, err := json.Marshal(AskResponse{Generation: generation, Count: len(answers), Answers: out, Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// nastyStrings exercise every escaping rule of encoding/json: quotes
// and backslashes, control bytes (with and without short escapes),
// the HTML-unsafe set, the JS line separators, invalid UTF-8 in every
// position, and plain multi-byte text.
var nastyStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "tab\tnl\ncr\rbs\bff\f", "nul\x00bell\x07esc\x1b del\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029end", "\xff", "a\xc3", "\xe2\x80", "ok\xf0\x9f\x98", "\xed\xa0\x80",
	"héllo wörld ✓ 😀", "\ufffd", "N", "a=b;c", "x\x00y",
}

// oracleValues covers every tree.Value kind, with every nasty string
// in every position a string can take.
func oracleValues() []tree.Value {
	vals := []tree.Value{
		tree.Int(0), tree.Int(-42), tree.Int(math.MaxInt64), tree.Int(math.MinInt64),
		tree.Float(2), tree.Float(-0.5), tree.Float(1e21), tree.Float(1e-7), tree.Float(100000),
		tree.Float(math.Inf(1)), tree.Float(math.Inf(-1)), tree.Float(math.NaN()), tree.Float(math.Copysign(0, -1)),
		tree.Bool(true), tree.Bool(false),
		tree.Ref{Name: tree.PlainName("s1")},
		tree.TreeVal{Root: nil},
		tree.TreeVal{Root: tree.Sym("leaf")},
	}
	for _, s := range nastyStrings {
		vals = append(vals,
			tree.Symbol(s), tree.String(s),
			tree.Ref{Name: tree.SkolemName("Psup", tree.String(s), tree.Int(3))},
			tree.TreeVal{Root: tree.Sym("car", tree.Sym(s, tree.Str(s)), tree.IntLeaf(7), tree.FloatLeaf(3),
				tree.RefLeaf(tree.SkolemName(s, tree.Symbol(s))))},
		)
	}
	return vals
}

// oracleAnswers builds answers over vals: plain and Skolem names,
// empty, single and wide bindings (past the encoder's stack-held
// variable list), nasty variable names, and wire-keyed answers.
func oracleAnswers(vals []tree.Value) []mediator.Answer {
	answers := []mediator.Answer{
		{Name: tree.PlainName("b1")},
		{Name: tree.PlainName("b2"), Binding: engine.Binding{}},
		mediator.RelayedAnswer(tree.SkolemName("Pview1", tree.String("Supplier 001")), nil, &mediator.WireForms{Key: "from\x00the <wire>"}),
	}
	wide := engine.Binding{}
	for i, v := range vals {
		name := tree.SkolemName("Pview", v, tree.Int(int64(i)))
		b := engine.Binding{"N": v, nastyStrings[i%len(nastyStrings)]: vals[(i+1)%len(vals)]}
		answers = append(answers, mediator.Answer{Name: name, Binding: b})
		if i < 12 {
			wide[fmt.Sprintf("V%02d", 11-i)] = v
		}
	}
	return append(answers, mediator.Answer{Name: tree.PlainName("wide"), Binding: wide})
}

var oracleProfiles = []json.RawMessage{
	nil, {},
	json.RawMessage(`{"rules":[]}`),
	json.RawMessage("{\n  \"rules\": [ {\"rule\": \"<View1> & \u2028\"} ],\n  \"n\": 1.50\n}\n"),
}

// TestAppendAskResponseMatchesMarshal is the differential test:
// AppendAskResponse, and AppendProfile over it, ≡ wireAnswers +
// json.Marshal + "\n" over every value kind, name shape, binding shape,
// key mode and profile.
func TestAppendAskResponseMatchesMarshal(t *testing.T) {
	answers := oracleAnswers(oracleValues())
	sets := [][]mediator.Answer{nil, {}, answers[:1], answers}
	for si, set := range sets {
		for _, keyed := range []bool{false, true} {
			for pi, profile := range oracleProfiles {
				want := oracleAskResponse(t, int64(si+1), set, keyed, profile)
				// A non-empty dst is appended to, not overwritten.
				plain := AppendAskResponse([]byte("prefix"), int64(si+1), set, keyed)
				got := AppendProfile([]byte("prefix"), plain[len("prefix"):], profile)
				if string(got) != "prefix"+string(want) {
					t.Fatalf("set %d keyed=%v profile %d diverges from json.Marshal:\n got %q\nwant %q",
						si, keyed, pi, got[len("prefix"):], want)
				}
				if !json.Valid(got[len("prefix"):]) {
					t.Fatalf("set %d keyed=%v profile %d: invalid JSON", si, keyed, pi)
				}
			}
		}
	}
	// An invalid profile (json.Marshal of the struct would fail) is left
	// out; the reply stays a valid document.
	got := AppendProfile(nil, AppendAskResponse(nil, 1, answers[:1], false), json.RawMessage(`{"unterminated`))
	if want := oracleAskResponse(t, 1, answers[:1], false, nil); string(got) != string(want) {
		t.Errorf("invalid profile: got %q, want %q", got, want)
	}
}

// fuzzAnswers is the fuzz targets' value generator: the fuzzed strings
// become a Skolem functor and argument, a variable name, and String,
// Symbol, Ref and TreeVal binding values; the numbers become Int and
// Float values.
func fuzzAnswers(s1, s2 string, n int64, x float64, b bool) []mediator.Answer {
	return []mediator.Answer{
		{Name: tree.PlainName(s1)},
		{Name: tree.SkolemName(s2, tree.String(s1), tree.Int(n)), Binding: engine.Binding{
			s1:  tree.String(s2),
			s2:  tree.Symbol(s1),
			"F": tree.Float(x),
			"I": tree.Int(n),
			"B": tree.Bool(b),
			"R": tree.Ref{Name: tree.SkolemName(s1, tree.Float(x))},
			"T": tree.TreeVal{Root: tree.Sym(s2, tree.Str(s1), tree.FloatLeaf(x), tree.RefLeaf(tree.PlainName(s2)))},
		}},
		mediator.RelayedAnswer(tree.PlainName("remote"), nil, &mediator.WireForms{Key: s2}),
	}
}

// FuzzAppendAskResponse holds the byte identity over arbitrary text
// (fuzzAnswers; n is the generation too).
func FuzzAppendAskResponse(f *testing.F) {
	for i, s := range nastyStrings {
		f.Add(s, nastyStrings[(i+1)%len(nastyStrings)], int64(i-3), float64(i)/4, i%2 == 0, i%3 == 0)
	}
	f.Add("x", "y", int64(math.MinInt64), math.Inf(-1), true, true)
	f.Add("x", "y", int64(0), math.NaN(), false, true)
	f.Add("x", "y", int64(1), 2.0, true, false)
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, x float64, keyed, withProfile bool) {
		answers := fuzzAnswers(s1, s2, n, x, keyed)
		var profile json.RawMessage
		if withProfile {
			profile, _ = json.Marshal(map[string]any{s1: s2, "n": n})
		}
		want := oracleAskResponse(t, n, answers, keyed, profile)
		if got := AppendProfile(nil, AppendAskResponse(nil, n, answers, keyed), profile); string(got) != string(want) {
			t.Fatalf("diverges from json.Marshal:\n got %q\nwant %q", got, want)
		}
	})
}
