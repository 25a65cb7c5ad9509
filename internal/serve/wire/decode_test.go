package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/mediator"
	"yat/internal/tree"
)

// referenceDecode is the decode path DecodeAskResponse replaced in the
// shard client — json.Unmarshal into the wire struct, then
// tree.ParseName and tree.ParseValue over every display string — kept
// as the oracle the scanner is held to.
func referenceDecode(data []byte) (AskResponse, []mediator.Answer, error) {
	var out AskResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return out, nil, err
	}
	answers := make([]mediator.Answer, 0, len(out.Answers))
	for _, wa := range out.Answers {
		name, err := tree.ParseName(wa.Name)
		if err != nil {
			return out, nil, err
		}
		var binding engine.Binding
		for v, disp := range wa.Binding {
			val, err := tree.ParseValue(disp)
			if err != nil {
				return out, nil, err
			}
			if binding == nil {
				binding = engine.Binding{}
			}
			binding[v] = val
		}
		answers = append(answers, mediator.RelayedAnswer(name, binding, &mediator.WireForms{Key: wa.Key}))
	}
	return out, answers, nil
}

// checkDecode holds one reply to the decoder's contract and reports how
// many answers it accepted and how many of them carry forwarded
// members (-1, -1 for a refused reply):
//
//   - RelayAskResponse reads it as DecodeAskResponse does (relayDiff);
//   - a refusal is a *DecodeError;
//   - whatever is accepted, the reference accepts, with the same
//     generation and answers of equal names, bindings and merge keys;
//   - re-encoding the decoded answers, keyed and bare, gives exactly
//     json.Marshal of the wire struct over the child's own strings for
//     every forwarded answer, and over the re-rendered trees for the
//     rest.
func checkDecode(t testing.TB, data []byte) (accepted, forwarded int) {
	t.Helper()
	if diff := relayDiff(data, RelayAskResponse); diff != "" {
		t.Fatalf("%q: %s", data, diff)
	}
	gen, got, err := DecodeAskResponse(data)
	if err != nil {
		var derr *DecodeError
		if !errors.As(err, &derr) || derr.Offset < 0 || derr.Offset > len(data) {
			t.Fatalf("refused %q with %T %v, want a *DecodeError inside the reply", data, err, err)
		}
		return -1, -1
	}
	ref, want, refErr := referenceDecode(data)
	if refErr != nil {
		t.Fatalf("accepted %q, which the reference refuses: %v", data, refErr)
	}
	if gen != ref.Generation || len(got) != len(want) || ref.Count != len(want) {
		t.Fatalf("%q: generation %d with %d answers, reference %d with %d (count %d)",
			data, gen, len(got), ref.Generation, len(want), ref.Count)
	}
	for i := range got {
		if got[i].Name.Key() != want[i].Name.Key() || got[i].Binding.Key() != want[i].Binding.Key() ||
			got[i].MergeKey() != want[i].MergeKey() {
			t.Fatalf("%q: answer %d is %q, reference %q", data, i, got[i].MergeKey(), want[i].MergeKey())
		}
		if got[i].WireMembers() != "" {
			forwarded++
		}
	}
	for _, keyed := range []bool{false, true} {
		exp := AskResponse{Generation: gen, Count: len(got), Answers: make([]AskAnswer, len(got))}
		for i := range got {
			wa := ref.Answers[i]
			if got[i].WireMembers() == "" {
				wa = AskAnswer{Name: got[i].Name.String()}
				for v, val := range got[i].Binding {
					if wa.Binding == nil {
						wa.Binding = map[string]string{}
					}
					wa.Binding[v] = val.Display()
				}
			}
			if wa.Key = ""; keyed {
				wa.Key = got[i].MergeKey()
			}
			exp.Answers[i] = wa
		}
		marshaled, err := json.Marshal(exp)
		if err != nil {
			t.Fatal(err)
		}
		out := AppendAskResponse(nil, gen, got, keyed)
		if string(out) != string(marshaled)+"\n" {
			t.Fatalf("%q re-encoded (keyed=%v):\n got %q\nwant %q", data, keyed, out, marshaled)
		}
		// The display-form round trip: what parsed re-renders to text
		// that parses back to the same name and binding — the merge key
		// of an answer computed here; one a child sent travels only in
		// a keyed reply.
		_, again, err := DecodeAskResponse(out)
		if err != nil || len(again) != len(got) {
			t.Fatalf("%q re-encoded (keyed=%v) as %q, which decodes to %d answers, %v", data, keyed, out, len(again), err)
		}
		for i := range got {
			if again[i].Name.Key() != got[i].Name.Key() || again[i].Binding.Key() != got[i].Binding.Key() ||
				keyed && again[i].MergeKey() != got[i].MergeKey() {
				t.Fatalf("%q answer %d: merge key %q, after a re-render (keyed=%v) %q",
					data, i, got[i].MergeKey(), keyed, again[i].MergeKey())
			}
		}
	}
	return len(got), forwarded
}

// checkEncoderOutput holds the decoder to the encoder: a reply
// AppendAskResponse wrote passes checkDecode, is accepted exactly when
// the reference accepts it (a display form need not parse back), comes
// back with every answer forwarded, and re-encodes to the bytes it was.
// The exception is text that is not UTF-8: the encoder writes U+FFFD
// for each bad byte, which is canonical for the repaired string only —
// that answer comes back unforwarded and re-renders repaired — and two
// variables that differ in a bad byte collide, a duplicate the decoder
// refuses.
func checkEncoderOutput(t testing.TB, generation int64, answers []mediator.Answer, keyed bool, profile json.RawMessage) {
	t.Helper()
	reply := AppendProfile(nil, AppendAskResponse(nil, generation, answers, keyed), profile)
	n, fwd := checkDecode(t, reply)
	if bytes.Contains(reply, []byte(`\ufffd`)) {
		return
	}
	if _, _, refErr := referenceDecode(reply); (n < 0) != (refErr != nil) {
		t.Fatalf("decoder accepted=%v, reference error %v: %q", n >= 0, refErr, reply)
	}
	if n < 0 {
		return
	}
	if fwd != len(answers) {
		t.Fatalf("%d of %d answers forwarded (keyed=%v): %q", fwd, len(answers), keyed, reply)
	}
	_, got, _ := DecodeAskResponse(reply)
	want := AppendAskResponse(nil, generation, answers, keyed)
	// A keyed reply is relayed whole and unparsed.
	_, relayed, _ := RelayAskResponse(reply)
	for i, a := range relayed {
		if keyed != (a.Name.Functor == "" && a.Binding == nil) {
			t.Fatalf("answer %d relayed as %+v (keyed=%v): %q", i, a, keyed, reply)
		}
	}
	if out := AppendAskResponse(nil, generation, got, keyed); string(out) != string(want) {
		t.Fatalf("round trip (keyed=%v):\n got %q\nwant %q", keyed, out, want)
	}
}

// relayDiff holds RelayAskResponse to DecodeAskResponse on one reply
// and says how they differ, "" when they do not: they refuse alike,
// error for error, and of what they accept they read the same
// generation and merge keys, from which AppendAskResponse writes the
// same bytes, keyed and plain. relay is RelayAskResponse, or a mutant
// of it.
func relayDiff(data []byte, relay func([]byte) (int64, []mediator.Answer, error)) string {
	rgen, relayed, rerr := relay(data)
	gen, eager, err := DecodeAskResponse(data)
	if fmt.Sprint(rerr) != fmt.Sprint(err) {
		return fmt.Sprintf("relay error %v, eager error %v", rerr, err)
	}
	if err != nil {
		return ""
	}
	if rgen != gen || len(relayed) != len(eager) {
		return fmt.Sprintf("relay read generation %d with %d answers, eager %d with %d", rgen, len(relayed), gen, len(eager))
	}
	for i := range eager {
		if relayed[i].MergeKey() != eager[i].MergeKey() {
			return fmt.Sprintf("answer %d: relay merge key %q, eager %q", i, relayed[i].MergeKey(), eager[i].MergeKey())
		}
	}
	for _, keyed := range []bool{false, true} {
		if r, e := AppendAskResponse(nil, gen, relayed, keyed), AppendAskResponse(nil, gen, eager, keyed); !bytes.Equal(r, e) {
			return fmt.Sprintf("keyed=%v: relayed answers render\n%s\neager ones\n%s", keyed, r, e)
		}
	}
	return ""
}

// TestRelayMutantCaught proves relayDiff can fail: a relay that skips
// the display-form checks forwards, from replies in the encoder's own
// form, names and values the eager decoder refuses.
func TestRelayMutantCaught(t *testing.T) {
	unchecked := func(data []byte) (int64, []mediator.Answer, error) {
		d := askDecoder{src: string(data), relay: true, formsUnchecked: true}
		return d.reply()
	}
	for _, answer := range []string{
		`{"name":"P(","key":"k"}`,
		`{"name":"b1 b2","binding":{"N":"1"},"key":"k"}`,
		`{"name":"b1","binding":{"N":"a \u003c"},"key":"k"}`,
		`{"name":"b1","binding":{"A":"1","N":"\"open"},"key":"k"}`,
		`{"name":"Pview1(\"a\")","binding":{"N":""},"key":"k"}`,
	} {
		reply := []byte(`{"generation":1,"count":2,"answers":[{"name":"b0","key":"k0"},` + answer + `]}`)
		if diff := relayDiff(reply, RelayAskResponse); diff != "" {
			t.Errorf("%s: %s", reply, diff)
		}
		if diff := relayDiff(reply, unchecked); diff == "" {
			t.Errorf("%s: the relay that skips the display-form checks was not caught", reply)
		}
	}
}

// goldenReplies are the previous release's replies (indented) and the
// current one's (their compact form plus the newline).
func goldenReplies(t testing.TB) (indented, compact [][]byte) {
	t.Helper()
	for _, name := range []string{"ask_indented.golden.json", "ask_keyed_indented.golden.json"} {
		data, err := os.ReadFile(filepath.Join("..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, data); err != nil {
			t.Fatal(err)
		}
		c.WriteByte('\n')
		indented, compact = append(indented, data), append(compact, c.Bytes())
	}
	return indented, compact
}

// TestDecodeAskResponseMatchesUnmarshal is the differential test:
// DecodeAskResponse ≡ json.Unmarshal + ParseName/ParseValue on every
// reply the encoder writes and on the layouts other producers may
// send, and exactly the canonical ones are forwarded.
func TestDecodeAskResponseMatchesUnmarshal(t *testing.T) {
	indented, compact := goldenReplies(t)
	for i := range indented {
		n, fwd := checkDecode(t, compact[i])
		if n == 0 || fwd != n {
			t.Errorf("compact golden %d: %d answers, %d forwarded, want all", i, n, fwd)
		}
		if m, fwd := checkDecode(t, indented[i]); m != n || fwd != 0 {
			t.Errorf("indented golden %d: %d answers, %d forwarded, want %d and none", i, m, fwd, n)
		}
	}

	// Everything the encoder writes that parses back decodes whole, is
	// forwarded whole, and re-encodes to the bytes it came from.
	for i, a := range oracleAnswers(oracleValues()) {
		for _, keyed := range []bool{false, true} {
			for _, profile := range oracleProfiles {
				checkEncoderOutput(t, int64(i), []mediator.Answer{a}, keyed, profile)
			}
		}
	}

	for _, c := range []struct {
		name, reply        string
		answers, forwarded int
	}{
		{"empty object", `{}`, 0, 0},
		{"no answers", `{"generation":7,"count":0,"answers":[]}`, 0, 0},
		{"null answers", `{"generation":-0,"count":null,"answers":null}`, 0, 0},
		{"reordered and spaced", " {\t\"count\" : 1 ,\r\n \"answers\" : [ { \"binding\" : { \"N\" : \"1\" } , \"name\" : \"b1\" } ] , \"generation\" : 2 } \n", 1, 0},
		{"space between answers only", `{"generation":1,"count":2,"answers":[{"name":"b1"}, {"name":"b2","binding":{"N":"1"}} ]}`, 2, 2},
		{"space inside an answer", `{"generation":1,"count":1,"answers":[{"name": "b1"}]}`, 1, 0},
		{"unknown members", `{"generation":1,"count":1,"answers":[{"name":"b1","extra":[1,{"a":null}],"key":null}],"later":{"x":[true,false,-1.5e+3,"s\n"]}}`, 1, 0},
		{"unknown member after the key", `{"count":1,"answers":[{"name":"b1","key":"k","later":1}]}`, 1, 0},
		{"profile skipped", `{"generation":1,"count":1,"answers":[{"name":"b1","key":"k"}],"profile":{"rules":[{"n":1}]}}`, 1, 1},
		{"key before name", `{"count":1,"answers":[{"key":"k","name":"b1"}]}`, 1, 0},
		{"key between name and binding", `{"count":1,"answers":[{"name":"b1","key":"k","binding":{"N":"1"}}]}`, 1, 0},
		{"binding before name", `{"count":1,"answers":[{"binding":{"N":"1"},"name":"b1"}]}`, 1, 0},
		{"empty binding", `{"count":1,"answers":[{"name":"b1","binding":{}}]}`, 1, 0},
		{"null binding", `{"count":1,"answers":[{"name":"b1","binding":null}]}`, 1, 0},
		{"unsorted binding", `{"count":1,"answers":[{"name":"b1","binding":{"Z":"1","A":"2"}}]}`, 1, 0},
		{"sorted binding", `{"count":1,"answers":[{"name":"b1","binding":{"A":"2","Z":"1"}}]}`, 1, 1},
		{"escaped member name", `{"count":1,"answers":[{"na\u006de":"b1"}]}`, 1, 0},
		// The key is rendered again from its content, so its literal's form
		// is free.
		{"escaped key literal", `{"count":1,"answers":[{"name":"b1","key":"\u006b\/"}]}`, 1, 1},
		{"null key", `{"count":1,"answers":[{"name":"b1","key":null}]}`, 1, 1},
		{"foreign escaper: solidus", `{"count":1,"answers":[{"name":"b1","binding":{"N":"\"a\/b\""}}]}`, 1, 0},
		{"foreign escaper: raw <", `{"count":1,"answers":[{"name":"b1","binding":{"N":"\"<a>\""}}]}`, 1, 0},
		{"foreign escaper: upper-case hex", `{"count":1,"answers":[{"name":"b1","binding":{"N":"\"\u003C\""}}]}`, 1, 0},
		{"this escaper", `{"count":1,"answers":[{"name":"Pview1(\"a\u003cb\u0026\")","binding":{"N":"\"\u2028\u0001 é😀\""}}]}`, 1, 1},
		{"surrogate pair", `{"count":1,"answers":[{"name":"b1","binding":{"N":"\"\ud83d\ude00\""}}]}`, 1, 0},
		{"lone surrogates", `{"count":1,"answers":[{"name":"b1","binding":{"N":"\"\ud800x\udc00\ud800\""}}]}`, 1, 0},
		{"invalid UTF-8", "{\"count\":1,\"answers\":[{\"name\":\"b1\",\"binding\":{\"N\":\"\\\"\xff\xc3\\\"\"}}]}", 1, 0},
		{"raw U+2028", "{\"count\":1,\"answers\":[{\"name\":\"b1\",\"binding\":{\"N\":\"\\\"\u2028\\\"\"}}]}", 1, 0},
		// Display forms that do not survive ParseValue ∘ Display are
		// canonical JSON all the same: forwarded as the child wrote them.
		{"display forms that do not round-trip", `{"count":1,"answers":[{"name":"Pview1( 1 )","binding":{"F":"1.50"}}]}`, 1, 1},
		{"tree-valued forms, angle brackets raw", `{"count":1,"answers":[{"name":"Pview1(class < name < \"x\" >, &b1 >)","binding":{"T":"view < tag < \"v1\" > >"}}]}`, 1, 0},
		{"deepest skipped value", `{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`, 0, 0},
	} {
		if n, fwd := checkDecode(t, []byte(c.reply)); n != c.answers || fwd != c.forwarded {
			_, _, err := DecodeAskResponse([]byte(c.reply))
			t.Errorf("%s: %d answers, %d forwarded, want %d and %d (%v)", c.name, n, fwd, c.answers, c.forwarded, err)
		}
	}

	// Both refuse what is not an ask reply.
	for _, reply := range []string{
		"", " ", `{`, `[]`, `"reply"`, `nul`, `{"count":0,"answers":[]`, `{"count":0,"answers":[],}`, `{,}`,
		`{"count":0 "answers":[]}`, `{"count" 0}`, `{count:0}`, `{"count":0,"answers":[]}{}`, `{} x`,
		`{"count":01,"answers":[{"name":"b1"}]}`, `{"count":1.0,"answers":[{"name":"b1"}]}`, `{"count":1e0,"answers":[{"name":"b1"}]}`,
		`{"count":"1","answers":[{"name":"b1"}]}`, `{"count":-,"answers":[]}`, `{"count":0,"generation":9223372036854775808}`,
		`{"x":1.}`, `{"x":1e}`, `{"x":+1}`, `{"x":.5}`, `{"x":tru}`, `{"x":[1,]}`, `{"x":[1 2]}`, `{"x":{"a":1,}}`, `{"x":{"a"}}`, `{"x":[}`,
		`{"x":"\x"}`, `{"x":"\u12"}`, `{"x":"\u12G4"}`, "{\"x\":\"a\nb\"}", `{"x":"open`, `{"x":"open\`, "{\"\x00\":1}",
		`{"count":0,"answers":{}}`, `{"count":1,"answers":[1]}`, `{"count":1,"answers":[null]}`, `{"count":1,"answers":[{}]}`,
		`{"count":1,"answers":[{"name":null}]}`, `{"count":1,"answers":[{"name":5}]}`, `{"count":1,"answers":[{"name":""}]}`,
		`{"count":1,"answers":[{"name":"P("}]}`, `{"count":1,"answers":[{"name":"b1 b2"}]}`,
		`{"count":1,"answers":[{"name":"b1","binding":[]}]}`, `{"count":1,"answers":[{"name":"b1","binding":{"N":null}}]}`,
		`{"count":1,"answers":[{"name":"b1","binding":{"N":7}}]}`, `{"count":1,"answers":[{"name":"b1","binding":{"N":"<"}}]}`,
		`{"count":1,"answers":[{"name":"b1","binding":{"N":""}}]}`, `{"count":1,"answers":[{"name":"b1","key":1}]}`,
		`{"count":1,"answers":[{"name":"b1","binding":{"N":"\"ends on a backslash\\"}}]}`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	} {
		if n, _ := checkDecode(t, []byte(reply)); n >= 0 {
			t.Errorf("accepted %q", reply)
		}
		if _, _, err := referenceDecode([]byte(reply)); err == nil {
			t.Errorf("the reference accepts %q: it belongs in TestDecodeAskResponseRefusals", reply)
		}
	}
}

// TestDecodeAskResponseRefusals pins what the decoder refuses although
// encoding/json — and with it the reference, display forms included —
// takes it: the list in DecodeAskResponse's doc comment.
func TestDecodeAskResponseRefusals(t *testing.T) {
	for _, c := range []struct{ reply, why string }{
		{`null`, `expected '{'`},
		{`{"generation":1,"generation":2,"count":0,"answers":[]}`, `duplicate member "generation"`},
		{`{"count":0,"answers":[],"count":0}`, `duplicate member "count"`},
		{`{"count":0,"answers":[],"answers":[]}`, `duplicate member "answers"`},
		{`{"count":0,"answers":[],"profile":1,"profile":2}`, `duplicate member "profile"`},
		{`{"count":1,"answers":[{"name":"b1","name":"b2"}]}`, `duplicate member "name"`},
		{`{"count":1,"answers":[{"name":"b1","binding":{"N":"1"},"binding":{"M":"2"}}]}`, `duplicate member "binding"`},
		{`{"count":1,"answers":[{"name":"b1","key":"a","key":"b"}]}`, `duplicate member "key"`},
		{`{"count":1,"answers":[{"name":"b1","binding":{"N":"1","N":"2"}}]}`, `duplicate binding variable "N"`},
		{`{"count":1,"answers":[{"name":"b1","binding":{"N":"1","M":"2","N":"3"}}]}`, `duplicate binding variable "N"`},
		{`{"Count":0,"answers":[]}`, `only in case`},
		{`{"count":0,"ANSWERS":[]}`, `only in case`},
		{`{"count":1,"answers":[{"NAME":"b1"}]}`, `only in case`},
		{`{"count":1,"answers":[{"name":"b1","Binding":{"N":"1"}}]}`, `only in case`},
		{`{"count":1,"answers":[{"name":"b1","\u212aey":"k"}]}`, `only in case`}, // KELVIN SIGN folds to k
		{`{"generation":1,"count":30,"answers":[{"name":"b1"}]}`, `count is 30, the reply carries 1 answers`},
		{`{"generation":1,"count":0,"answers":[{"name":"b1"}]}`, `count is 0`},
		{`{"generation":1,"answers":[{"name":"b1"}]}`, `count is 0`},
		{`{"generation":1,"count":1,"answers":[]}`, `count is 1`},
		{`{"generation":1,"count":-1,"answers":null}`, `count is -1`},
	} {
		if _, _, err := referenceDecode([]byte(c.reply)); err != nil {
			t.Errorf("the reference refuses %q too (%v): it is no refusal of the decoder's own", c.reply, err)
		}
		_, answers, err := DecodeAskResponse([]byte(c.reply))
		var derr *DecodeError
		if !errors.As(err, &derr) || !strings.Contains(derr.Msg, c.why) || answers != nil {
			t.Errorf("%q: %d answers, error %v; want a *DecodeError saying %q", c.reply, len(answers), err, c.why)
		}
	}
}

// replySeeds wraps hand-written display forms — plain, reference and
// Skolem names, numbers, nested trees, forms that do not parse — in
// one-answer replies, canonical and spaced. (Served answers with their
// whole bindings are the goldens, goldenReplies.)
func replySeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, s := range [][3]string{
		{`Pview1("Supplier 001")`, "N", `"Supplier 001"`},
		{`Pview1("Supplier 001")`, "Z", "75011"},
		{`Pview1("Supplier 001")`, "C", "Paris"},
		{"b1", "X", "42"},
		{"&o1", "N", `"acme"`},
		{`Psup("a\"b", 3, 2.5)`, "F", "-0.5"},
		{"Pview1(class < name < \"x\" >, &b1 >)", "T", `view < tag < "v1" >, ref < &Psup("s") > >`},
		{"Pa(true)", "R", `&Psup("s", 1)`},
		{"P(", "V", "<"},
		{"A", "V", `"ends on a backslash\`},
		{"", "", ""},
	} {
		reply := AskResponse{Generation: 1, Count: 1, Answers: []AskAnswer{
			{Name: s[0], Binding: map[string]string{s[1]: s[2]}, Key: s[0] + "\x00" + s[1] + "=" + s[2] + ";"}}}
		compact, err := json.Marshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(reply, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, compact, indented)
	}
	return seeds
}

// FuzzDecodeAskResponse. On arbitrary bytes (data) the decoder never
// panics, refuses only with a *DecodeError, accepts nothing the
// reference refuses or reads differently, and re-encodes what it
// forwards to exactly json.Marshal of the wire struct, which decodes
// back to the same names and bindings (checkDecode). On the encoder's own
// output, over FuzzAppendAskResponse's value generator, it agrees with
// the reference on acceptance, forwards every answer, and re-encodes to
// the bytes it was given (checkEncoderOutput). RelayAskResponse reads
// every reply as DecodeAskResponse does, and relays a keyed one without
// a parse.
func FuzzDecodeAskResponse(f *testing.F) {
	indented, compact := goldenReplies(f)
	for i, data := range append(append(indented, compact...), replySeeds(f)...) {
		f.Add(data, "x", "y", int64(i), float64(i)/4, i%2 == 0)
	}
	for i, s := range nastyStrings {
		f.Add([]byte(`{"count":1,"answers":[{"name":"b1","binding":{"N":"1"}}]}`),
			s, nastyStrings[(i+1)%len(nastyStrings)], int64(i-3), float64(i)/4, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string, n int64, x float64, keyed bool) {
		checkDecode(t, data)

		checkEncoderOutput(t, n, fuzzAnswers(s1, s2, n, x, keyed), keyed, nil)
	})
}
