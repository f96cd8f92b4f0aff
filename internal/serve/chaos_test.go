package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/serve"
)

// The crash-recovery invariant: kill the daemon at ANY WAL offset — torn
// frame included — restart over the surviving files, let the client
// re-send every batch (same Ingest-Ids), and every query answers
// byte-identically to the uninterrupted server. This holds because
//
//   - snapshots capture (WAL offset, fold state, dedupe window)
//     atomically, so replaying the WAL suffix reconstructs exactly the
//     pre-crash fold sequence, reservoir generator state included;
//   - a torn final frame is truncated, and the batch it carried is
//     re-sent by the client and re-folded whole;
//   - batches already in the replayed prefix are acknowledged as
//     duplicates and never folded twice.
func TestChaosKillAndRestoreBitIdentical(t *testing.T) {
	const (
		tenant     = "alpha"
		numBatches = 18
		batchSize  = 60
		snapAfter  = 7 // snapshot mid-run, after this many batches
		killPoints = 5
	)
	chaosConfig := func(dir string) serve.Config {
		cfg := testConfig(dir)
		// Bootstrap CIs on, small reps: the fits and intervals must also
		// come back bit-identical. Reservoir 64 << records per shard, so
		// the subsample actively churns through RNG draws — the hard part
		// of the invariant.
		cfg.Engine = engine.Options{Workers: 2, BootstrapReps: 8, Seed: 7}
		return cfg
	}

	batch := func(i int) []byte {
		return csvBody(t, testRecords(batchSize, i*batchSize))
	}
	ingestID := func(i int) string { return fmt.Sprintf("chaos-%03d", i) }

	sendAll := func(t *testing.T, base string) {
		for i := 0; i < numBatches; i++ {
			resp, data := postIngest(t, base, tenant, ingestID(i), batch(i))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, data)
			}
		}
	}
	fetch := func(t *testing.T, base, path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}

	// Reference run: ingest everything, snapshot mid-way, record the
	// query answers. The server is never shut down — its files are left
	// exactly as a crash would leave them.
	refDir := t.TempDir()
	ref, err := serve.New(chaosConfig(refDir))
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	refHTTP := httptest.NewServer(ref.Handler())
	defer refHTTP.Close()
	for i := 0; i < snapAfter; i++ {
		if resp, data := postIngest(t, refHTTP.URL, tenant, ingestID(i), batch(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if err := ref.Snapshot(); err != nil {
		t.Fatalf("mid-run snapshot: %v", err)
	}
	snapOffset := ref.WALOffset(tenant)
	for i := snapAfter; i < numBatches; i++ {
		if resp, data := postIngest(t, refHTTP.URL, tenant, ingestID(i), batch(i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	endOffset := ref.WALOffset(tenant)
	if snapOffset <= int64(serve.WALMagicLen) || endOffset <= snapOffset {
		t.Fatalf("offsets make no sense: snapshot %d, end %d", snapOffset, endOffset)
	}
	wantResult := fetch(t, refHTTP.URL, "/v1/tenants/"+tenant+"/result")
	wantRates := fetch(t, refHTTP.URL, "/v1/tenants/"+tenant+"/rates")

	// copyDir clones the durability root as it exists right now.
	copyDir := func(t *testing.T, dst string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(dst, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"snapshot.bin", filepath.Join("wal", tenant+".wal")} {
			data, err := os.ReadFile(filepath.Join(refDir, rel))
			if err != nil {
				t.Fatalf("read %s: %v", rel, err)
			}
			if err := os.WriteFile(filepath.Join(dst, rel), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Seeded kill offsets across [snapshot, end], hitting frame
	// boundaries and torn mid-frame positions alike; the extremes are
	// pinned so "crashed right at the snapshot" and "lost nothing" are
	// always covered.
	rng := rand.New(rand.NewSource(20260808))
	offsets := []int64{snapOffset, endOffset}
	for len(offsets) < killPoints {
		offsets = append(offsets, snapOffset+rng.Int63n(endOffset-snapOffset+1))
	}

	for _, off := range offsets {
		off := off
		t.Run(fmt.Sprintf("kill-at-%d", off), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir)
			if err := os.Truncate(filepath.Join(dir, "wal", tenant+".wal"), off); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			s, err := serve.New(chaosConfig(dir))
			if err != nil {
				t.Fatalf("restart over killed state: %v", err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			}()

			// The client re-delivers everything; the dedupe window turns
			// the overlap into acknowledged duplicates.
			sendAll(t, ts.URL)

			gotResult := fetch(t, ts.URL, "/v1/tenants/"+tenant+"/result")
			if !bytes.Equal(gotResult, wantResult) {
				t.Errorf("result bytes diverge after kill at offset %d\nwant: %s\ngot:  %s",
					off, trunc(wantResult), trunc(gotResult))
			}
			gotRates := fetch(t, ts.URL, "/v1/tenants/"+tenant+"/rates")
			if !bytes.Equal(gotRates, wantRates) {
				t.Errorf("rates bytes diverge after kill at offset %d\nwant: %s\ngot:  %s",
					off, trunc(wantRates), trunc(gotRates))
			}
		})
	}
}

func trunc(b []byte) string {
	const max = 2000
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "…"
}

// A clean shutdown writes a final snapshot, so the next start replays no
// WAL at all and still answers identically.
func TestRestartAfterCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)

	s1, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for i := 0; i < 6; i++ {
		body := csvBody(t, testRecords(80, i*80))
		if resp, data := postIngest(t, ts1.URL, "alpha", fmt.Sprintf("b-%d", i), body); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d: %s", i, resp.StatusCode, data)
		}
	}
	want := map[string][]byte{}
	for _, path := range []string{"/v1/tenants/alpha/result", "/v1/tenants/alpha/rates", "/v1/tenants/alpha/summary"} {
		resp, err := http.Get(ts1.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		want[path] = data
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() { _ = s2.Shutdown(context.Background()) }()
	for path, wantBytes := range want {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s diverges after clean restart\nwant: %s\ngot:  %s", path, trunc(wantBytes), trunc(got))
		}
	}
}

// A config change across restarts must be refused, not silently
// reinterpreted.
func TestRestartRefusesOptionChange(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	s1, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if resp, _ := postIngest(t, ts1.URL, "alpha", "b", csvBody(t, testRecords(20, 0))); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	cfg.Stream.ReservoirSize = 128
	if _, err := serve.New(cfg); err == nil {
		t.Fatal("restart with changed reservoir size succeeded; want refusal")
	}
}

// A corrupt server snapshot is refused as a corrupt snapshot, not
// misreported as a corrupt WAL.
func TestRestartReportsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	// The magic, one tenant, and a 5-byte name with 1 byte behind it.
	snap := append([]byte("HFSRV01\n"), 1, 5, 'a')
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := serve.New(testConfig(dir))
	if !errors.Is(err, serve.ErrSnapshot) || errors.Is(err, serve.ErrWAL) {
		t.Fatalf("err = %v, want ErrSnapshot and not ErrWAL", err)
	}
}
