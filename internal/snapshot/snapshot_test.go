package snapshot

import (
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
			Store: "&o1:Pview1 view < name -> \"acme\" >\n",
			Rules: []RuleCache{
				{Rule: "View1", Cached: true,
					Entries: []Entry{{Name: "&o1:Pview1", Tree: `view < name -> "acme" >`}},
					Sources: []string{"b1:Pbr"}},
				{Rule: "Empty", Cached: true},
				{Rule: "Support", Sources: []string{"b2:Pbr"}},
			},
			Degraded: []string{"src1"},
			Stats:    engine.Stats{Activations: 4, Bindings: 9, Outputs: 2, Rounds: 3},
			Runs:     2,
			AskMemo: []MemoEntry{{
				Pattern:  `view < -> name -> N >`,
				Functors: []string{"Pview1"},
				Answers:  []MemoAnswer{{Name: "&o1:Pview1", Binding: map[string]string{"N": `"acme"`}}},
			}},
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

func TestReadVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s := sample()
	s.Format = FormatVersion + 1
	if _, err := Write(path, s); err != nil {
		t.Fatal(err)
	}
	if got := reasonOf(t, readErr(t, path)); got != ReasonVersion {
		t.Fatalf("reason %q, want %q", got, ReasonVersion)
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

func readErr(t *testing.T, path string) error {
	t.Helper()
	_, err := Read(path)
	if err == nil {
		t.Fatal("Read succeeded, want error")
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
// knobs, and deliberately ignores parallelism (outputs are
// byte-identical at every worker count).
func TestHashOptionsDiscriminates(t *testing.T) {
	base := engine.NewOptions()
	if HashOptions(base) != HashOptions(engine.NewOptions()) {
		t.Fatal("identical options hash differently")
	}
	if HashOptions(base) != HashOptions(nil) {
		t.Fatal("nil options differ from the zero options")
	}
	par := engine.NewOptions(engine.WithParallelism(8))
	if HashOptions(base) != HashOptions(par) {
		t.Fatal("parallelism must not affect the options hash")
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
