package wire

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// checkRequest holds DecodeAskRequest to json.Unmarshal on one body:
// the same acceptance, the same value, and a refusal that is a
// *DecodeError inside the body. It reports whether the body was taken.
func checkRequest(t *testing.T, body []byte) bool {
	t.Helper()
	var want AskRequest
	refErr := json.Unmarshal(body, &want)
	got, err := DecodeAskRequest(body)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%q: error %v, json.Unmarshal says %v", body, err, refErr)
	}
	if err != nil {
		var derr *DecodeError
		if !errors.As(err, &derr) || derr.Offset < 0 || derr.Offset > len(body) || !strings.HasPrefix(err.Error(), "ask request, ") {
			t.Fatalf("%q refused with %T %v, want a *DecodeError inside the request", body, err, err)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: read %#v, json.Unmarshal %#v", body, got, want)
	}
	return true
}

// requestSeeds are bodies json.Unmarshal takes and refuses, over every
// rule DecodeAskRequest copies from it.
var requestSeeds = []string{
	`{"pattern":"X"}`, `{"pattern":"X","functors":["Pview1","Pview2"]}`, ` {"functors" : [ "P" ] , "pattern" : "X" } `,
	`{"pattern":"view < -> name -> \"N\" >"}`, `{"pattern":"<😀\ud800"}`, "{\"pattern\":\"\xff\xfe\"}",
	`{"Pattern":"X","PATTERN":"Y"}`, `{"pattern":"X","pattern":null}`, `{"pattern":null}`, `{"pattern":"X","Functorſ":["P"]}`,
	`{"functors":["a","b","c"],"functors":[null]}`, `{"functors":["a","b","c"],"functors":[null],"functors":[null,null,null,null,null]}`,
	`{"functors":["a"],"functors":[]}`, `{"functors":[]}`, `{"functors":null}`, `{"functors":["a"],"functors":null}`,
	`{"functors":[null,""]}`, `{"unknown":{"a":[1,2.5e3,true,null,"s"]},"pattern":"X"}`, `{}`, `null`, ` null `,
	`{"pattern":5}`, `{"pattern":"X","pattern":5}`, `{"functors":"P"}`, `{"functors":[1]}`, `{"functors":[["P"]]}`,
	`[]`, `""`, `1`, `true`, ``, ` `, `{`, `{"pattern":"X"} trailing`, `{"pattern":"X"}{}`, `{"pattern":"X",}`,
	`{"functors":["a",]}`, `{"pattern":"a\qb"}`, "{\"pattern\":\"a\nb\"}", `nul`, `{"x":01}`,
	`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
	`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
}

// TestDecodeAskRequestMatchesUnmarshal is the differential test over
// the seeds, and AppendAskRequest's identity with json.Marshal.
func TestDecodeAskRequestMatchesUnmarshal(t *testing.T) {
	taken := 0
	for _, body := range requestSeeds {
		if checkRequest(t, []byte(body)) {
			taken++
		}
	}
	if taken == 0 || taken == len(requestSeeds) {
		t.Fatalf("%d of %d seeds taken: the seeds do not cover both sides", taken, len(requestSeeds))
	}
	for _, req := range []AskRequest{{}, {Pattern: "X"}, {Pattern: `a "<&>"` + " \xff", Functors: []string{"P", "", "\x00"}}, {Functors: []string{}}} {
		checkAppendRequest(t, req)
	}
}

// checkAppendRequest: AppendAskRequest writes json.Marshal's bytes,
// which DecodeAskRequest reads back to what json.Unmarshal reads.
func checkAppendRequest(t *testing.T, req AskRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendAskRequest([]byte("prefix"), req); string(got) != "prefix"+string(want) {
		t.Fatalf("%#v: appended %q, json.Marshal %q", req, got[len("prefix"):], want)
	}
	checkRequest(t, want)
}

// TestDecodeAskRequestAllocs: a request costs its pattern, its functors
// slice and each functor, and nothing for the document.
func TestDecodeAskRequestAllocs(t *testing.T) {
	body := AppendAskRequest(nil, AskRequest{Pattern: `view < -> name -> N, -> city -> C, -> zip -> Z >`, Functors: []string{"Pview1"}})
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeAskRequest(body); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("%v allocations, want <= 3", n)
	}
}

// FuzzDecodeAskRequest: on any body DecodeAskRequest ≡ json.Unmarshal,
// and on any request AppendAskRequest ≡ json.Marshal.
func FuzzDecodeAskRequest(f *testing.F) {
	for i, body := range requestSeeds {
		f.Add([]byte(body), nastyStrings[i%len(nastyStrings)], nastyStrings[(i+1)%len(nastyStrings)], i%3)
	}
	f.Fuzz(func(t *testing.T, body []byte, pattern, functor string, functors int) {
		checkRequest(t, body)
		req := AskRequest{Pattern: pattern}
		for i := 0; i < functors%4; i++ {
			req.Functors = append(req.Functors, functor)
		}
		checkAppendRequest(t, req)
	})
}
