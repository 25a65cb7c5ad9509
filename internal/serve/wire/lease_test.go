package wire

import "testing"

// An epoch reads back as the one it was written from, and nothing else
// AppendEpoch could not have written reads at all; the zero epoch,
// which grants nothing, does not either.
func TestEpochRoundTrip(t *testing.T) {
	for _, e := range []Epoch{{Boot: 1}, {Boot: 0x9f3c, Writes: 17}, {Boot: ^uint64(0), Writes: ^uint64(0)}} {
		v := string(AppendEpoch(nil, e))
		if got, ok := ParseEpoch(v); !ok || got != e {
			t.Errorf("ParseEpoch(%q) = %+v, %v; want %+v", v, got, ok, e)
		}
	}
	for _, bad := range []string{
		"", ".", "1", "1.", ".1", "0.1", "01.1", "1.01", "A.1", "1.a", "-1.1", "1.-1", "1.1.1", " 1.1", "1.1 ",
		"1ffffffffffffffff.1", "1.18446744073709551616",
	} {
		if got, ok := ParseEpoch(bad); ok {
			t.Errorf("ParseEpoch(%q) = %+v, want it refused", bad, got)
		}
	}
}
