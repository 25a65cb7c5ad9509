package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// The reference round is a fixed piece of work that owes nothing to
// YAT: thirty canned answers through encoding/json and back. Every
// load loop interleaves it with its operations, so it runs on the same
// cores in the same seconds, and the end-to-end time metrics are
// reported in multiples of its median in the same slice ("ref").
//
// It is here because this sandbox's host does not hold still. The very
// same round was measured to run at 60 µs for ten seconds and at 95 µs
// for the next ten (neighbours on the same cores: a register-only loop
// beside it kept its pace within 3 %), and that spread ten runs'
// latency in milliseconds by 15-40 %, whatever the window and however
// it was sliced (median, best quartile or best of 4 to 24 slices),
// while the ratio to rounds measured alongside spread by 3-10 %. The
// milliseconds are still reported, per layer.

// refAnswer has the shape of a wire answer.
type refAnswer struct {
	Name    string            `json:"name"`
	Binding map[string]string `json:"binding"`
}

var refAnswers = func() []refAnswer {
	out := make([]refAnswer, 30)
	for i := range out {
		out[i] = refAnswer{Name: fmt.Sprintf("Pview%d", 1+i%8), Binding: map[string]string{
			"N": fmt.Sprintf("%q", fmt.Sprintf("Supplier %03d", i)), "C": `"Paris"`, "Z": `"75013"`}}
	}
	return out
}()

const (
	// refGap spaces a client's reference rounds: one is due when the
	// last lies this far back, which costs a client about 3 % of its
	// time.
	refGap = 3 * time.Millisecond
	// refPerConversion rounds follow every conversion of convert_batch,
	// about 2 % of its time.
	refPerConversion = 5
)

// referenceRound runs one round and returns its milliseconds.
func referenceRound() float64 {
	start := time.Now()
	data, err := json.Marshal(refAnswers)
	if err == nil {
		var out []refAnswer
		err = json.Unmarshal(data, &out)
	}
	if err != nil {
		panic(err) // canned strings always make the round trip
	}
	return float64(time.Since(start)) / 1e6
}
