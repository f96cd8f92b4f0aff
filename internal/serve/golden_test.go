package serve_test

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the format golden files")

// checkGolden fails unless blob equals the committed file at path (or
// rewrites the file under -update) and returns the file's bytes. The
// committed files pin the on-disk formats across versions: a round trip
// within one build cannot catch an encoder and a decoder that change
// together.
func checkGolden(t *testing.T, path string, blob []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("encoding differs from %s (%d vs %d bytes)", path, len(blob), len(want))
	}
	return want
}

// goldenWALRecords are the two records of the golden WAL payload: a
// label and a sub-second end time on the second exercise every field.
func goldenWALRecords() []failures.Record {
	recs := testRecords(2, 0)
	recs[1].Detail = "DIMM"
	recs[1].End = recs[1].End.Add(123456789 * time.Nanosecond)
	return recs
}

// A WAL payload encodes to the committed bytes, and those bytes decode
// to the same records and re-encode unchanged.
func TestWALPayloadGolden(t *testing.T) {
	recs := goldenWALRecords()
	want := checkGolden(t, "testdata/wal_payload.golden", serve.AppendWALPayload(nil, "golden-1", recs))
	id, got, err := serve.DecodeWALPayload(want)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if id != "golden-1" || !reflect.DeepEqual(got, recs) {
		t.Fatalf("decoded (%q, %+v), want (golden-1, %+v)", id, got, recs)
	}
	if again := serve.AppendWALPayload(nil, id, got); !bytes.Equal(again, want) {
		t.Fatal("decoding and re-encoding the golden payload changed its bytes")
	}
}

// snapshotBytes snapshots s and returns the snapshot file's contents.
func snapshotBytes(t *testing.T, s *serve.Server, dir string) []byte {
	t.Helper()
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func shutdown(t *testing.T, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// goldenIngest runs the golden scenario — one tenant, one fixed ingest
// — on a fresh server and returns its snapshot and the tenant's WAL.
func goldenIngest(t *testing.T) (snapshot, walFile []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := serve.New(testConfig(dir))
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants/alpha/ingest", bytes.NewReader(csvBody(t, testRecords(30, 0))))
	req.Header.Set("Ingest-Id", "golden-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	snapshot = snapshotBytes(t, s, dir)
	shutdown(t, s)
	walFile, err = os.ReadFile(filepath.Join(dir, "wal", "alpha.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return snapshot, walFile
}

// dataDir returns a fresh data directory holding the given snapshot
// and, when walFile is non-nil, tenant alpha's WAL.
func dataDir(t *testing.T, snapshot, walFile []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if walFile != nil {
		if err := os.WriteFile(filepath.Join(dir, "wal", "alpha.wal"), walFile, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A server with one tenant and one fixed ingest snapshots to the
// committed HFSRV01 bytes, and a server restored from those bytes (and
// the tenant's WAL) snapshots to them again.
func TestServerSnapshotGolden(t *testing.T) {
	snapshot, walFile := goldenIngest(t)
	want := checkGolden(t, "testdata/server_snapshot.golden", snapshot)
	dir := dataDir(t, want, walFile)
	s, err := serve.New(testConfig(dir))
	if err != nil {
		t.Fatalf("restore from golden: %v", err)
	}
	defer shutdown(t, s)
	if got := snapshotBytes(t, s, dir); !bytes.Equal(got, want) {
		t.Fatal("restoring and re-snapshotting the golden snapshot changed its bytes")
	}
}

// A snapshot whose fold state predates the current streamstats format
// (the golden scenario as written when reservoir snapshots stored a
// generator draw count) is dropped at restart and the WAL replayed from
// its start: the server's next snapshot is the current golden. Without
// the WAL the state cannot be rebuilt, and an option change is refused
// as for a current snapshot.
func TestServerSnapshotUpgrade(t *testing.T) {
	old, err := os.ReadFile("testdata/server_snapshot_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/server_snapshot.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, walFile := goldenIngest(t)
	dir := dataDir(t, old, walFile)
	s, err := serve.New(testConfig(dir))
	if err != nil {
		t.Fatalf("restart from an outdated snapshot: %v", err)
	}
	defer shutdown(t, s)
	if got := snapshotBytes(t, s, dir); !bytes.Equal(got, want) {
		t.Fatal("the snapshot after rebuilding from the WAL differs from the golden one")
	}

	noWAL := testConfig(dataDir(t, old, nil))
	resized := testConfig(dataDir(t, old, walFile))
	resized.Stream.ReservoirSize = 128
	for name, cfg := range map[string]serve.Config{"without its WAL": noWAL, "with a changed reservoir size": resized} {
		if s, err := serve.New(cfg); err == nil {
			shutdown(t, s)
			t.Errorf("restart from an outdated snapshot %s succeeded; want refusal", name)
		}
	}
}

// The fold reads only the instants of record times, never their zones:
// a CSV ingest whose timestamps carry a -07:00 offset answers /rates with
// the same bytes and snapshots to the same HFSRV01 bytes (and so the
// same HFINC01 fold state) as the same records written in UTC.
func TestZoneOffsetsFoldIdentically(t *testing.T) {
	recs := testRecords(300, 0)
	recs[7].End = recs[7].End.Add(123456789 * time.Nanosecond)
	utc := csvBody(t, recs)
	zone := time.FixedZone("", -7*3600)
	lines := strings.Split(strings.TrimSuffix(string(utc), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		f := strings.Split(lines[i], ",")
		for _, j := range []int{len(f) - 2, len(f) - 1} {
			ts, err := time.Parse(time.RFC3339Nano, f[j])
			if err != nil {
				t.Fatal(err)
			}
			f[j] = ts.In(zone).Format(time.RFC3339Nano)
		}
		lines[i] = strings.Join(f, ",")
	}
	offset := []byte(strings.Join(lines, "\n") + "\n")
	if !bytes.Contains(offset, []byte("-07:00")) || bytes.Contains(offset, []byte("Z,")) {
		t.Fatalf("rewritten trace is not all -07:00:\n%s", offset[:200])
	}

	run := func(body []byte) (rates, snapshot []byte) {
		t.Helper()
		dir := t.TempDir()
		s, err := serve.New(testConfig(dir))
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		defer shutdown(t, s)
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/alpha/ingest", bytes.NewReader(body))
		req.Header.Set("Ingest-Id", "zone-1")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tenants/alpha/rates", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("rates: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), snapshotBytes(t, s, dir)
	}
	wantRates, wantSnap := run(utc)
	gotRates, gotSnap := run(offset)
	if !bytes.Equal(gotRates, wantRates) {
		t.Fatalf("/rates of the -07:00 ingest:\n%s\nwant (UTC ingest):\n%s", gotRates, wantRates)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("snapshot of the -07:00 ingest differs from the UTC ingest's")
	}
}
