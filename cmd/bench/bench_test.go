package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hpcfail/internal/engine"
)

// runReport runs one subcommand with -out in a fresh directory and
// decodes the report it wrote, checking the shared header on the way.
func runReport(t *testing.T, args ...string) map[string]any {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(append(args, "-out", out)); err != nil {
		t.Fatalf("bench %v: %v", args, err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var h header
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if h.Benchmark == "" || h.GOOS != runtime.GOOS || h.GOARCH != runtime.GOARCH ||
		h.GoVersion != runtime.Version() || h.GOMAXPROCS < 1 {
		t.Fatalf("bad header: %+v", h)
	}
	if h.VCSRevision == "" || h.VCSModified == "" {
		t.Fatalf("missing vcs stamp: %+v", h)
	}
	if h.NumCPU != runtime.NumCPU() {
		t.Fatalf("num_cpu = %d, want %d", h.NumCPU, runtime.NumCPU())
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// assertTrue fails unless every named top-level field is the JSON true.
func assertTrue(t *testing.T, rep map[string]any, fields ...string) {
	t.Helper()
	for _, f := range fields {
		if rep[f] != true {
			t.Errorf("%s = %v, want true", f, rep[f])
		}
	}
}

func TestSubcommandReports(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		rep := runReport(t, "trace", "-scale", "1", "-dir", t.TempDir())
		assertTrue(t, rep, "parallel_encode_bytes_identical", "streaming_results_identical")
		agr, ok := rep["agreement"].(map[string]any)
		if !ok || agr["shards_checked"].(float64) == 0 || agr["sketch_epsilon"].(float64) <= 0 {
			t.Fatalf("agreement block = %v", rep["agreement"])
		}
	})
	t.Run("sweep", func(t *testing.T) {
		assertTrue(t, runReport(t, "sweep", "-reps", "1"), "identity_checked")
	})
	t.Run("engine", func(t *testing.T) {
		rep := runReport(t, "engine", "-reps", "1", "-bootstrap", "8", "-workers", "1,2")
		if n := len(rep["scaling"].([]any)); n != 2 {
			t.Fatalf("%d scaling points, want 2", n)
		}
	})
	t.Run("serve", func(t *testing.T) {
		rep := runReport(t, "serve", "-scale", "0.2", "-queries", "5")
		if q := rep["query"].(map[string]any); q["concurrent_batches"].(float64) == 0 {
			t.Fatalf("no batches folded under queries: %v", q)
		}
	})
}

// A failed trace gate must leave -out untouched: a lossy round trip may
// not overwrite the committed report.
func TestTraceGateBlocksReport(t *testing.T) {
	a := &engine.FleetResult{Shards: []engine.ShardResult{{Records: 3}}}
	b := &engine.FleetResult{Shards: []engine.ShardResult{{Records: 4}}}
	out := filepath.Join(t.TempDir(), "BENCH_trace.json")
	if err := writeReport(out, traceReport{}, nil, sameFleets(a, a, b)); err == nil {
		t.Fatal("differing fleet results passed the gate")
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("report written despite a failed gate (stat: %v)", err)
	}
	if err := writeReport(out, traceReport{}, nil, sameFleets(a, a)); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("report not written after the gates passed: %v", err)
	}
}

func TestRound(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0},
		{2479.991, 2480},
		{857042.061, 857000},
		{1.61449, 1.614},
		{0.0098249, 0.009825},
		{2.0349e-14, 2.035e-14},
		{-32.0084, -32.01},
	} {
		if got := round(c.in); got != c.want {
			t.Errorf("round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
