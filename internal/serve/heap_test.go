package serve_test

import (
	"net/http"
	"runtime"
	"testing"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResultHeapFlat alternates appends with /result refits on one
// tenant. Every refit fits samples no earlier call saw, and the engine
// must drop them when the call returns: the daemon's live heap stays
// flat however many refits it serves.
func TestResultHeapFlat(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Stream.ReservoirSize = 512
	_, ts := newTestServer(t, cfg)

	const batch = 200
	offset := 0
	cycle := func() {
		t.Helper()
		resp, data := postIngest(t, ts.URL, "heap", "", csvBody(t, testRecords(batch, offset)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest at %d: status %d: %s", offset, resp.StatusCode, data)
		}
		offset += batch
		if code := getJSON(t, ts.URL+"/v1/tenants/heap/result", nil); code != http.StatusOK {
			t.Fatalf("result at %d records: status %d", offset, code)
		}
	}

	// Warm up until every shard's reservoir is full, so the folded state
	// itself has stopped growing.
	for range 10 {
		cycle()
	}
	base := liveHeap()
	const cycles = 40
	for range cycles {
		cycle()
	}
	// Keeping each refit's samples and fits, as an engine-lifetime fit
	// memo did, grows the live heap here by about 340 KiB per cycle.
	const slack = 1 << 20
	if grown := int64(liveHeap()) - int64(base); grown > slack {
		t.Fatalf("live heap grew %d KiB over %d append+result cycles (base %d KiB), want <= %d KiB",
			grown>>10, cycles, base>>10, slack>>10)
	}
}
