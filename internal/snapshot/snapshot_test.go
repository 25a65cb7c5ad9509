package snapshot

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yat/internal/engine"
	"yat/internal/tree"
	"yat/internal/yatl"
)

func sample() *Snapshot {
	return &Snapshot{
		Format:      FormatVersion,
		ProgramHash: "prog-hash",
		OptionsHash: "opts-hash",
		Program:     "selective",
		Generation:  3,
		Payload: &Generation{
			Groups: []Group{
				{Functor: "Pempty", Entries: []Entry{}},
				{Functor: "Pview1", Entries: []Entry{{Name: `Pview1("acme")`, Tree: `view < name -> "acme" >`}}},
			},
			Degraded: []string{"src1"},
			Stats:    engine.Stats{Activations: 4, Bindings: 9, Outputs: 2, Rounds: 3},
			Runs:     2,
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	want := sample()
	n, err := Write(path, want)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || int(fi.Size()) != n {
		t.Fatalf("Write reported %d bytes, file is %v %v", n, fi, err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != want.Format || got.ProgramHash != want.ProgramHash ||
		got.OptionsHash != want.OptionsHash || got.Program != want.Program ||
		got.Generation != want.Generation {
		t.Fatalf("envelope mismatch: got %+v", got)
	}
	wantPayload, _ := json.Marshal(want.Payload)
	gotPayload, _ := json.Marshal(got.Payload)
	if string(wantPayload) != string(gotPayload) {
		t.Fatalf("payload mismatch:\n got %s\nwant %s", gotPayload, wantPayload)
	}
	if err := got.Verify("prog-hash", "opts-hash"); err != nil {
		t.Fatalf("Verify on matching hashes: %v", err)
	}
}

// The file is one compact JSON value and the checksum covers the
// payload bytes exactly as they sit in it: a reader hashes what it read,
// with no canonicalising pass in between.
func TestEncodeIsCompactAndChecksumsTheBytesOnDisk(t *testing.T) {
	data, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil || !bytes.Equal(compact.Bytes(), data) {
		t.Fatalf("Encode is not compact JSON (%v):\n%s", err, data)
	}
	var env struct {
		Checksum string
		Payload  json.RawMessage
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, env.Payload) || sum(env.Payload) != env.Checksum {
		t.Fatalf("checksum %s does not cover the payload bytes of the file", env.Checksum)
	}
	// Re-indenting the file keeps it valid JSON with the same content but
	// changes the payload's bytes: the hash must notice.
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", " "); err != nil {
		t.Fatal(err)
	}
	_, err = Decode(indented.Bytes())
	if got := reasonOf(t, err); got != ReasonChecksum {
		t.Fatalf("re-indented file: reason %q, want %q", got, ReasonChecksum)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Generation = 9
	if _, err := Write(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 9 {
		t.Fatalf("read generation %d after overwrite, want 9", got.Generation)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("stray files after writes: %v", entries)
	}
}

// reasonOf asserts err is a *LoadError and returns its reason.
func reasonOf(t *testing.T, err error) Reason {
	t.Helper()
	var lerr *LoadError
	if !errors.As(err, &lerr) {
		t.Fatalf("want *LoadError, got %T: %v", err, err)
	}
	return lerr.Reason
}

func TestReadMissing(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "nope.json"))
	if got := reasonOf(t, err); got != ReasonMissing {
		t.Fatalf("reason %q, want %q", got, ReasonMissing)
	}
}

func TestReadCorruptJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte("not json at all{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reasonOf(t, readErr(t, path)); got != ReasonCorrupt {
		t.Fatalf("reason %q, want %q", got, ReasonCorrupt)
	}
}

func TestReadTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write that somehow bypassed the rename protocol: the file
	// ends mid-envelope.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reasonOf(t, readErr(t, path)); got != ReasonCorrupt {
		t.Fatalf("reason %q, want %q", got, ReasonCorrupt)
	}
}

// There is one format: a file of the previous one (or a later one) is
// not converted, it is a cold boot.
func TestReadVersionMismatch(t *testing.T) {
	for _, format := range []int{FormatVersion - 1, FormatVersion + 1} {
		path := filepath.Join(t.TempDir(), "snap.json")
		s := sample()
		s.Format = format
		if _, err := Write(path, s); err != nil {
			t.Fatal(err)
		}
		if got := reasonOf(t, readErr(t, path)); got != ReasonVersion {
			t.Fatalf("format %d: reason %q, want %q", format, got, ReasonVersion)
		}
	}
}

func TestReadChecksumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if _, err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the payload, keeping the envelope valid JSON.
	tampered := strings.Replace(string(data), "acme", "evil", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reasonOf(t, readErr(t, path)); got != ReasonChecksum {
		t.Fatalf("reason %q, want %q", got, ReasonChecksum)
	}
}

// A crash between CreateTemp and Rename leaves a stray temp file and
// the previous complete snapshot; Read never looks at the temp file.
func TestStrayTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	if _, err := Write(path, sample()); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "snap.json.tmp-123456")
	if err := os.WriteFile(junk, []byte(`{"format":1,"payload":"gar`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 3 {
		t.Fatalf("read generation %d, want the intact snapshot's 3", got.Generation)
	}
}

func TestVerifyMismatches(t *testing.T) {
	s := sample()
	if got := reasonOf(t, s.Verify("other", "opts-hash")); got != ReasonProgramHash {
		t.Fatalf("reason %q, want %q", got, ReasonProgramHash)
	}
	if got := reasonOf(t, s.Verify("prog-hash", "other")); got != ReasonOptionsHash {
		t.Fatalf("reason %q, want %q", got, ReasonOptionsHash)
	}
}

// FuzzDecode: whatever the bytes, Decode returns a snapshot with a
// payload or a *LoadError carrying one of the six reasons — never a
// panic, never an untyped error.
func FuzzDecode(f *testing.F) {
	valid, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	future := sample()
	future.Format = FormatVersion + 1
	bumped, err := future.Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		valid,
		bumped,
		valid[:len(valid)/2],
		bytes.Replace(valid, []byte("acme"), []byte("evil"), 1),
		[]byte("not json at all{"),
		[]byte(`{"format":1,"payload":"gar`),
		[]byte(`{"format":2,"payload":{"rules":[{"rule":"View1","cached":true}]}}`),
		[]byte(`{"format":3}`),
		[]byte(`{"format":3,"checksum":"","payload":null}`),
		[]byte(`{"format":3,"payload":{"groups":[{"functor":7}]}}`),
		nil,
	} {
		f.Add(seed)
	}
	reasons := map[Reason]bool{ReasonMissing: true, ReasonCorrupt: true, ReasonChecksum: true,
		ReasonVersion: true, ReasonProgramHash: true, ReasonOptionsHash: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err == nil {
			if s == nil || s.Payload == nil || s.Format != FormatVersion {
				t.Fatalf("Decode accepted %q as %+v", data, s)
			}
			return
		}
		var lerr *LoadError
		if !errors.As(err, &lerr) || !reasons[lerr.Reason] {
			t.Fatalf("Decode(%q) = %T %v, want a *LoadError with a known reason", data, err, err)
		}
	})
}

func readErr(t *testing.T, path string) error {
	t.Helper()
	_, err := Read(path)
	if err == nil {
		t.Fatal("Read succeeded, want error")
	}
	var lerr *LoadError
	if errors.As(err, &lerr) && lerr.Path != path {
		t.Fatalf("Read error names path %q, want %q", lerr.Path, path)
	}
	return err
}

func TestHashProgramDiscriminates(t *testing.T) {
	p1 := yatl.MustParse(yatl.SGMLToODMGSource)
	p2 := yatl.MustParse(yatl.SGMLToODMGSource)
	if HashProgram(p1) != HashProgram(p2) {
		t.Fatal("identical programs hash differently")
	}
	p3 := yatl.MustParse(yatl.WebProgramSource)
	if HashProgram(p1) == HashProgram(p3) {
		t.Fatal("distinct programs hash identically")
	}
}

// HashOptions covers the registry surface and the result-affecting
// knobs.
func TestHashOptionsDiscriminates(t *testing.T) {
	base := engine.NewOptions()
	if HashOptions(base) != HashOptions(engine.NewOptions()) {
		t.Fatal("identical options hash differently")
	}
	if HashOptions(base) != HashOptions(nil) {
		t.Fatal("nil options differ from the zero options")
	}
	rounds := engine.NewOptions(engine.WithMaxRounds(7))
	if HashOptions(base) == HashOptions(rounds) {
		t.Fatal("MaxRounds must affect the options hash")
	}
	reg := engine.NewRegistry()
	reg.Register(engine.Func{Name: "extra", Fn: func(args []tree.Value) (tree.Value, error) {
		return tree.String("x"), nil
	}})
	withReg := engine.NewOptions(engine.WithRegistry(reg))
	if HashOptions(base) == HashOptions(withReg) {
		t.Fatal("registry surface must affect the options hash")
	}
}
