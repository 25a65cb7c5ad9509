package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"yat/internal/engine"
	"yat/internal/serve/wire"
	"yat/internal/snapshot"
	"yat/internal/workload"
	"yat/internal/yatl"
)

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func snapStatus(t *testing.T, baseURL string) *wire.SnapshotStatus {
	t.Helper()
	var stats wire.StatsResponse
	getJSON(t, baseURL+"/stats?timing=0", &stats)
	return stats.Server.Snapshot
}

func snapConfig(dir string) Config {
	return Config{
		Prog:        yatl.MustParse(versionedSelective("v1", "v1")),
		Inputs:      workload.BrochureStore(6, 2, 5, 11),
		SnapshotDir: dir,
	}
}

// The serve-level warm-start cycle: cold boot (missing snapshot is a
// logged fallback), warm traffic, POST /admin/snapshot, then a
// "restarted" server over the same directory comes up restored and
// answers the first ask byte-identically from cache.
func TestServerSnapshotRestart(t *testing.T) {
	dir := t.TempDir()

	_, ts := newTestServer(t, snapConfig(dir))
	st := snapStatus(t, ts.URL)
	if st == nil || st.Restored || st.FallbackReason != string(snapshot.ReasonMissing) {
		t.Fatalf("cold boot status %+v, want fallback %q", st, snapshot.ReasonMissing)
	}

	resp, cold := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK || cold.Count == 0 {
		t.Fatalf("warm-up ask failed: %d %+v", resp.StatusCode, cold)
	}

	sresp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var saved wire.SnapshotResponse
	if err := json.NewDecoder(sresp.Body).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || saved.Bytes == 0 {
		t.Fatalf("admin snapshot: %d %+v", sresp.StatusCode, saved)
	}
	if saved.Path != filepath.Join(dir, SnapshotFile) {
		t.Fatalf("snapshot path %q", saved.Path)
	}
	if st := snapStatus(t, ts.URL); st.Saves != 1 {
		t.Fatalf("saves %d, want 1", st.Saves)
	}

	// "Restart": a fresh server over the same directory and config.
	s2, ts2 := newTestServer(t, snapConfig(dir))
	st = snapStatus(t, ts2.URL)
	if st == nil || !st.Restored || st.FallbackReason != "" {
		t.Fatalf("restart status %+v, want restored", st)
	}
	// /healthz carries the same status block.
	var health wire.HealthResponse
	getJSON(t, ts2.URL+"/healthz", &health)
	if health.Snapshot == nil || !health.Snapshot.Restored {
		t.Fatalf("healthz snapshot status %+v", health.Snapshot)
	}

	resp, warm := postAsk(t, ts2.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored ask status %d", resp.StatusCode)
	}
	coldJSON, _ := json.Marshal(cold.Answers)
	warmJSON, _ := json.Marshal(warm.Answers)
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Fatalf("restored answers differ:\n cold %s\n warm %s", coldJSON, warmJSON)
	}
	// The first ask after restore is a demand-cache hit; no slice ran
	// in this process.
	var stats wire.StatsResponse
	getJSON(t, ts2.URL+"/stats?timing=0", &stats)
	if stats.Mediator.CacheHits != 1 || stats.Mediator.CacheMisses != 0 {
		t.Fatalf("restored first ask: hits=%d misses=%d, want 1/0",
			stats.Mediator.CacheHits, stats.Mediator.CacheMisses)
	}
	if !stats.Mediator.Restored {
		t.Fatal("aggregated stats not marked restored")
	}
	_ = s2
}

// Every on-disk failure mode boots cold with its reason surfaced —
// never a panic, never stale answers.
func TestServerSnapshotFallbacks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SnapshotFile)

	// Seed a valid snapshot by warming a donor server.
	_, ts := newTestServer(t, snapConfig(dir))
	if resp, _ := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}}); resp.StatusCode != http.StatusOK {
		t.Fatal("warm-up failed")
	}
	if resp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("seed snapshot: %v %v", err, resp)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, cfg Config, wantReason string) {
		t.Helper()
		_, ts := newTestServer(t, cfg)
		st := snapStatus(t, ts.URL)
		if st == nil || st.Restored || st.FallbackReason != wantReason {
			t.Fatalf("status %+v, want fallback %q", st, wantReason)
		}
		// The cold server still answers.
		if resp, out := postAsk(t, ts.URL, wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}}); resp.StatusCode != http.StatusOK || out.Count == 0 {
			t.Fatalf("cold-boot ask failed: %d", resp.StatusCode)
		}
	}

	t.Run("corrupt-checksum", func(t *testing.T) {
		tampered := bytes.Replace(pristine, []byte("v1"), []byte("vX"), 1)
		if bytes.Equal(tampered, pristine) {
			t.Fatal("tamper target not found")
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, snapConfig(dir), string(snapshot.ReasonChecksum))
	})

	t.Run("truncated", func(t *testing.T) {
		if err := os.WriteFile(path, pristine[:len(pristine)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, snapConfig(dir), string(snapshot.ReasonCorrupt))
	})

	t.Run("version-mismatch", func(t *testing.T) {
		bumped := bytes.Replace(pristine,
			[]byte(`"format":3`), []byte(`"format":99`), 1)
		if bytes.Equal(bumped, pristine) {
			t.Fatal("format field not found")
		}
		// Re-sign nothing: version is checked before the checksum.
		if err := os.WriteFile(path, bumped, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, snapConfig(dir), string(snapshot.ReasonVersion))
	})

	t.Run("program-hash-mismatch", func(t *testing.T) {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := snapConfig(dir)
		cfg.Prog = yatl.MustParse(versionedSelective("v2", "v1"))
		check(t, cfg, string(snapshot.ReasonProgramHash))
	})

	// Files earlier releases wrote — the format-1 one and the selective
	// format-2 ones for this very program and options: none is
	// converted, the boot is cold.
	for _, c := range []struct {
		name, path string
		format     int
		sameHashes bool
	}{
		{"format-1-file", "testdata/snapshot_format1.json", 1, true},
		{"format-2-parent", "../mediator/testdata/snapshot_format2.parent.json", 2, true},
		{"format-2-parent-support", "../mediator/testdata/snapshot_format2.parent_support.json", 2, false},
		{"format-2-golden", "../mediator/testdata/snapshot_format2.golden.json", 2, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			old, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Format      int
				ProgramHash string `json:"program_hash"`
				OptionsHash string `json:"options_hash"`
			}
			if err := json.Unmarshal(old, &env); err != nil {
				t.Fatal(err)
			}
			cfg := snapConfig(dir)
			same := env.ProgramHash == snapshot.HashProgram(cfg.Prog) &&
				env.OptionsHash == snapshot.HashOptions(engine.NewOptions())
			if env.Format != c.format || same != c.sameHashes {
				t.Fatalf("vacuous: the fixture %+v must be format %d and differ from what boots in its format alone: %v", env, c.format, c.sameHashes)
			}
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, cfg, string(snapshot.ReasonVersion))
		})
	}

	// A crash mid-write leaves a stray temp file next to the previous
	// complete snapshot; the boot restores from the intact file.
	t.Run("mid-write-crash", func(t *testing.T) {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".tmp-dead", pristine[:10], 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, snapConfig(dir))
		if st := snapStatus(t, ts.URL); st == nil || !st.Restored {
			t.Fatalf("status %+v, want restored despite stray temp file", st)
		}
	})
}

func TestAdminSnapshotUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
	if eb := decodeError(t, resp); eb.Code != "snapshot_unconfigured" {
		t.Fatalf("code %q", eb.Code)
	}
	// No snapshot block in /stats or /healthz when unconfigured.
	if st := snapStatus(t, ts.URL); st != nil {
		t.Fatalf("unexpected snapshot status %+v", st)
	}
}

// A graceful drain with SnapshotOnDrain persists the warm cache; the
// next boot restores from it.
func TestDrainWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := snapConfig(dir)
	cfg.SnapshotOnDrain = true
	cfg.DrainTimeout = 2 * time.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	body, _ := json.Marshal(wire.AskRequest{Pattern: tagPattern, Functors: []string{"Pview1"}})
	resp, err := http.Post(url+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up ask status %d", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	snap, err := snapshot.Read(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatalf("no snapshot after drain: %v", err)
	}
	warmed := false
	for _, rec := range snap.Payload.Groups {
		warmed = warmed || rec.Functor == "Pview1" && len(rec.Entries) > 0
	}
	if !warmed {
		t.Fatalf("drain snapshot misses the warmed group's entries: %+v", snap.Payload.Groups)
	}
}
