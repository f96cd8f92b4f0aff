// Command perfbench is the repository benchmark. One invocation runs one
// workload in-process for a fixed time, checks every result it gets, and
// prints one JSON line of metrics as its last line of output:
//
//	bash perfbench/run.sh --workload trace-scan --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md says why each was chosen and what it bypasses):
//
//	trace-scan       tracefmt file -> ScanParallel -> engine.AnalyzeStream -> report
//	fleet-bootstrap  engine.AnalyzeFleet with bootstrap CIs -> report
//	serve-mixed      one closed-loop client: CSV ingests and /result queries
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it alternates untraced and traced passes, records spans
// around every call into a layer, writes them under the --dir directory,
// and reports the per-layer metrics, including the tracing overhead.
// The traced run also repeats the batch workloads at one worker and
// requires the same result digest as at two.
//
// The engine and the codec run with 2 workers on GOMAXPROCS 2. The
// program under test sees only inputs generated from --seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workers is the engine and codec worker count, and GOMAXPROCS.
const workers = 2

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (README.md gives the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"result_p50_ms", "ms"},
	{"result_p90_ms", "ms"},
}

// perLayer are the traced run's metrics, named after the repository's
// packages. A layer a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"lanl.generate_s", "s"},
	{"tracefmt.encode_s", "s"},
	{"tracefmt.bytes_per_record", "B"},
	{"tracefmt.blocks", "count"},
	{"tracefmt.decode_wait_s", "s"},
	{"engine.fold_s", "s"},
	{"engine.fit_s", "s"},
	{"engine.memo_hits", "count"},
	{"engine.memo_misses", "count"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.collisions", "count"},
	{"engine.cpu_util", "ratio"},
	{"engine.speedup_1w", "x"},
	{"streamstats.add_ns", "ns"},
	{"dist.bootstrap_reps", "count"},
	{"dist.reps_per_s", "1/s"},
	{"report.render_s", "s"},
	{"failures.csv_encode_s", "s"},
	{"failures.parse_s", "s"},
	{"serve.ingest_handler_ms", "ms"},
	{"serve.result_handler_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.wal_bytes_per_record", "B"},
	{"serve.rejected", "count"},
	{"serve.ingest_p99_ms", "ms"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// config is one run's settings. The size fields default to the
// benchmark's workloads; tests shrink them.
type config struct {
	seed    int64
	seconds time.Duration
	dir     string
	tr      *tracer // nil on the untraced run
	// minPasses is the fewest timed passes a run makes, however long
	// they take.
	minPasses int
	// scale is the lanl failure-rate scale of the workload's trace.
	scale float64
	// hooks let tests doctor what the program returns; zero in runs.
	hooks hooks
}

// outcome is what a workload measured and verified.
type outcome struct {
	gate
	e2e   map[string]float64
	layer map[string]float64
	// digest is the first pass's result digest; later passes must match.
	digest string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// sameAsFirst checks a pass's result digest against the first pass's:
// one seed must give one result on every pass.
func (o *outcome) sameAsFirst(d string) error {
	if o.digest == "" {
		o.digest = d
		return nil
	}
	return checkSame("pass", o.digest, d)
}

type workloadFunc func(*config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"trace-scan":      traceScan,
	"fleet-bootstrap": fleetBootstrap,
	"serve-mixed":     serveMixed,
}

var defaults = map[string]config{
	"trace-scan":      {scale: 100, minPasses: 3},
	"fleet-bootstrap": {scale: 1, minPasses: 3},
	"serve-mixed":     {scale: 2, minPasses: 2},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "trace-scan, fleet-bootstrap or serve-mixed")
	seed := fset.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fset.Int("seconds", 20, "how long the run measures")
	trace := fset.Int("trace", 0, "1 for the traced per-layer run")
	dir := fset.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for trace files, server data and spans")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	runtime.GOMAXPROCS(workers)

	cfg := defaults[*name]
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.dir = filepath.Join(*dir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	env, _ := json.Marshal(map[string]any{"env": environment(*name, *seed, *trace)})
	fmt.Fprintln(stdout, string(env))

	rep, err := fn(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.tr != nil {
		// Spans outlive the run's scratch files: they go beside them.
		path := filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := cfg.tr.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = rss

	defs, values := endToEnd, rep.e2e
	if cfg.tr != nil {
		defs, values = perLayer, rep.layer
	}
	out := result{Correct: rep.ok(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d operations, %d failed, result digest %s\n",
		*name, *seed, rep.attempted, rep.failed, rep.digest)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment stamps the run: the program's revision (from the build's
// VCS stamp when it has one, and always a digest of the Go sources), the
// toolchain, the CPUs the process may use and the benchmark settings.
func environment(name string, seed int64, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"trace":         trace,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       workers,
	}
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// dot-directories, so a run in a checkout without git history still
// names the code it measured.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
