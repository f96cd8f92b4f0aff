package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/serve"
)

// FuzzIngestHandler throws arbitrary bytes at the ingest endpoint. The
// handler's contract under garbage: never panic, always answer one of
// the documented statuses, and on 200 account every input row as either
// accepted or quarantined (both non-negative, and the tenant's summary
// counters never go backwards).
func FuzzIngestHandler(f *testing.F) {
	cfg := testConfig(f.TempDir())
	cfg.MaxBodyBytes = 64 << 10
	cfg.MaxBatchRecords = 512
	s, err := serve.New(cfg)
	if err != nil {
		f.Fatalf("serve.New: %v", err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	handler := s.Handler()

	header := "system,node,hw,workload,cause,detail,start,end\n"
	valid := header + "1,0,A,compute,Hardware,,2005-01-01T00:00:00Z,2005-01-01T01:00:00Z\n"
	f.Add([]byte(valid))
	f.Add([]byte(header))                                                                                                // no rows
	f.Add([]byte(""))                                                                                                    // empty body
	f.Add([]byte("garbage"))                                                                                             // no header
	f.Add([]byte(valid + "1,0,A,compute,Bogus,,notatime,alsonot\n"))                                                     // bad row
	f.Add([]byte(valid[:len(valid)-20]))                                                                                 // truncated mid-row
	f.Add([]byte(header + "1,0,\"A\n"))                                                                                  // unterminated quote
	f.Add([]byte(header + strings.Repeat("1,0,A,compute,Hardware,,2005-01-01T00:00:00Z,2005-01-01T01:00:00Z\n", 600)))   // over record cap
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 300))                                                                   // binary junk
	f.Add([]byte(header + "999999999999999999999999,0,A,compute,Hardware,,2005-01-01T00:00:00Z,2005-01-01T01:00:00Z\n")) // absurd number

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/tenants/fuzz/ingest", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case 200:
			var res serve.IngestResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", rec.Body.String(), err)
			}
			if res.Accepted < 0 || res.Quarantined < 0 {
				t.Fatalf("negative accounting: %+v", res)
			}
		case 400, 413, 429, 499, 503:
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with non-error body %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	})
}

// FuzzWALPayload throws arbitrary bytes at the WAL payload decoder, which
// replay runs on every CRC-valid frame. It must never panic, must report
// every rejection as ErrWAL, and a payload it accepts must re-encode to
// one that decodes to the same records. The bytes may differ: varints
// accept overlong encodings.
func FuzzWALPayload(f *testing.F) {
	golden, err := os.ReadFile("testdata/wal_payload.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(serve.AppendWALPayload(nil, "", nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, recs, err := serve.DecodeWALPayload(payload)
		if err != nil {
			if !errors.Is(err, serve.ErrWAL) {
				t.Fatalf("rejection is not ErrWAL: %v", err)
			}
			return
		}
		id2, recs2, err := serve.DecodeWALPayload(serve.AppendWALPayload(nil, id, recs))
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if id2 != id || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("re-encoded payload decodes to (%q, %+v), want (%q, %+v)", id2, recs2, id, recs)
		}
	})
}

// FuzzServerSnapshot throws arbitrary bytes at the HFSRV01 decoder, which
// every daemon start runs on the snapshot file. It must never panic,
// every rejection must wrap ErrSnapshot, and a snapshot it accepts must
// be canonical: the restored state re-marshals to exactly its bytes. The
// dedupe window is sized past any entry count the input can hold, so no
// accepted window is trimmed.
func FuzzServerSnapshot(f *testing.F) {
	golden, err := os.ReadFile("testdata/server_snapshot.golden")
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/server_snapshot_v1.golden")
	if err != nil {
		f.Fatal(err)
	}
	magic := golden[:8]
	if golden[8] != 1 {
		f.Fatalf("golden snapshot holds %d tenants, want 1", golden[8])
	}
	tenant := golden[9:]
	f.Add(golden)
	f.Add(v1) // predates the streamstats format, with no WAL to rebuild from
	f.Add(golden[:len(golden)-1])
	f.Add(append(append([]byte(nil), magic...), 0))                                       // no tenants
	f.Add(append(append(append(append([]byte(nil), magic...), 2), tenant...), tenant...)) // repeated tenant
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := testConfig(dir)
		cfg.DedupeWindow = len(data)/3 + 1
		again, err := serve.RestoreSnapshot(cfg, data)
		if err != nil {
			if !errors.Is(err, serve.ErrSnapshot) {
				t.Fatalf("rejection does not wrap ErrSnapshot: %v", err)
			}
			return
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot re-marshals to different bytes:\n got %x\nwant %x", again, data)
		}
	})
}
