package wire

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// An entity tag reads back as the digest it was written from, and
// nothing else AppendETag could not have written reads at all.
func TestETagRoundTrip(t *testing.T) {
	sum := sha256.Sum256([]byte("reply"))
	tag := string(AppendETag(nil, &sum))
	if got, ok := ParseETag(tag); !ok || got != sum {
		t.Fatalf("ParseETag(%s) = %x, %v; want %x", tag, got, ok, sum)
	}
	hexSum := tag[1 : len(tag)-1]
	for _, bad := range []string{
		"", "*", `""`, hexSum, "W/" + tag, tag + ", " + tag, " " + tag, tag + " ",
		`"` + hexSum[1:] + `"`, `"` + hexSum + `0"`, `"` + strings.ToUpper(hexSum) + `"`,
		`"` + hexSum[:62] + `g0"`, `'` + hexSum + `'`,
	} {
		if got, ok := ParseETag(bad); ok {
			t.Errorf("ParseETag(%q) = %x, want it refused", bad, got)
		}
	}
}
