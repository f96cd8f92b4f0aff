package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
)

// small returns a workload's configuration shrunk to run in seconds:
// two passes over a smaller trace. fleet-bootstrap keeps the
// paper-sized trace, which its band check needs.
func small(t *testing.T, name string, traced bool) *config {
	t.Helper()
	cfg := defaults[name]
	cfg.seed, cfg.dir, cfg.minPasses = 1, t.TempDir(), 2
	switch name {
	case "trace-scan":
		cfg.scale = 2
	case "serve-mixed":
		cfg.scale = 0.25
	}
	if traced {
		cfg.tr = newTracer()
	}
	return &cfg
}

func runWorkload(t *testing.T, name string, cfg *config) *outcome {
	t.Helper()
	out, err := workloads[name](cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			if testing.Short() && name == "fleet-bootstrap" {
				continue
			}
			out := runWorkload(t, name, small(t, name, traced))
			if !out.ok() {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v",
					name, traced, out.failed, out.attempted, out.errs)
			}
			for _, d := range endToEnd {
				if v := out.e2e[d.name]; d.name != "peak_rss_mb" && !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, d.name, v)
				}
			}
		}
	}
}

// dropFirst hides the first record of the first batch from the engine.
type dropFirst struct {
	engine.BatchSource
	dropped bool
}

func (d *dropFirst) ScanBatch() ([]failures.Record, error) {
	b, err := d.BatchSource.ScanBatch()
	if !d.dropped && len(b) > 1 {
		d.dropped = true
		b = b[1:]
	}
	return b, err
}

func TestDroppedRecordFailsTheRun(t *testing.T) {
	cfg := small(t, "trace-scan", false)
	cfg.hooks.source = func(s engine.BatchSource) engine.BatchSource { return &dropFirst{BatchSource: s} }
	out := runWorkload(t, "trace-scan", cfg)
	if out.failed == 0 || out.failed != out.attempted {
		t.Fatalf("%d of %d passes failed, want all: %v", out.failed, out.attempted, out.errs)
	}
	if !strings.Contains(out.errs[0], "not conserved") {
		t.Errorf("failure %q does not name the lost record", out.errs[0])
	}
}

func flip(d string) string {
	if strings.HasSuffix(d, "0") {
		return d[:len(d)-1] + "1"
	}
	return d[:len(d)-1] + "0"
}

func TestFlippedDigestFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pass   int
		traced bool
	}{
		{"second pass", 1, false},
		{"one-worker pass", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := small(t, "trace-scan", tc.traced)
			cfg.hooks.digest = func(pass int, d string) string {
				if pass == tc.pass {
					return flip(d)
				}
				return d
			}
			out := runWorkload(t, "trace-scan", cfg)
			if out.failed != 1 {
				t.Fatalf("%d of %d operations failed, want 1: %v", out.failed, out.attempted, out.errs)
			}
		})
	}
}

func TestRefusedIngestFailsTheRun(t *testing.T) {
	cfg := small(t, "serve-mixed", false)
	cfg.minPasses = 1
	var posts atomic.Int64
	cfg.hooks.handler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && posts.Add(1) == 3 {
				http.Error(w, "refused by the test", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	out := runWorkload(t, "serve-mixed", cfg)
	if out.ok() {
		t.Fatal("a refused ingest passed every check")
	}
	found := false
	for _, e := range out.errs {
		found = found || strings.Contains(e, "ingest answered 503")
	}
	if !found {
		t.Errorf("no failure names the refused ingest: %v", out.errs)
	}
}

func TestChecksRejectDoctoredValues(t *testing.T) {
	_, nonFinite := checkResult(http.StatusOK, []byte(`{"mean":"NaN"}`))
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"dropped record", checkConserved(10, 10, 9, 0, 0)},
		{"reordered records", checkConserved(10, 10, 10, 1, 0)},
		{"flipped digest", checkSame("pass", "ab", "ac")},
		{"refused ingest", checkAck(http.StatusTooManyRequests, []byte(`{"error":"full"}`), 100)},
		{"short ack", checkAck(http.StatusOK, []byte(`{"accepted":99}`), 100)},
		{"non-finite result", nonFinite},
		{"lost records", checkSummary(http.StatusOK, []byte(`{"records":99}`), 100)},
	} {
		if tc.err == nil {
			t.Errorf("%s passed its check", tc.name)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json in step with the
// workloads and metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []def
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if c.got[i] != (def{w.name, w.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, program prints %s in %s", c.kind, i, c.got[i], w.name, w.unit)
			}
		}
	}
}
