// Command bench runs the component benchmarks and writes each one's
// report, with the machine it ran on, to a BENCH_<name>.json file.
//
// Usage:
//
//	bench engine [-out BENCH_engine.json] [-bootstrap 32] [-reps 3]
//	             [-workers 1,2,4,8] [-gomaxprocs 1,2,4,8] [-seed 1]
//	bench serve  [-out BENCH_serve.json] [-scale 2] [-batch 500] [-clients 4]
//	             [-queries 100] [-bootstrap -1] [-seed 1]
//	bench sweep  [-out BENCH_sweep.json] [-seed 1] [-workers 0] [-reps 3] [-seeds 3]
//	bench trace  [-out BENCH_trace.json] [-scale 100] [-seed 1] [-bootstrap -1]
//	             [-workers N] [-dir d] [-skip-inmem] [-cpuprofile f] [-memprofile f]
//
// Every subcommand that has an identity gate (the optimized path against
// its reference, or one worker count against another) evaluates all of
// its gates before the report is written: a failed gate exits non-zero
// and leaves the previous report in place.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

var subcommands = map[string]func(args []string) error{
	"engine": runEngine,
	"serve":  runServe,
	"sweep":  runSweep,
	"trace":  runTrace,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("missing subcommand: engine, serve, sweep or trace")
	}
	sub, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q: want engine, serve, sweep or trace", args[0])
	}
	return sub(args[1:])
}

// header opens every report: what was measured, the commit it was built
// from and the machine it was measured on. Reports embed it, so its keys
// stay at the top level.
type header struct {
	Benchmark string `json:"benchmark"`
	// VCSRevision and VCSModified are the build's vcs.revision and
	// vcs.modified stamps, "unknown" when the binary carries none (plain
	// go run stamps nothing; go run -buildvcs=true does).
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
}

func newHeader(benchmark string) header {
	h := header{
		Benchmark:   benchmark,
		VCSRevision: "unknown",
		VCSModified: "unknown",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value
			}
		}
	}
	return h
}

// writeReport writes rep to path as indented JSON once every gate has
// passed. The gates are the run's identity checks, passed as their
// errors: if any is non-nil they are all returned and nothing is written,
// so a failed run never overwrites a committed report.
func writeReport(path string, rep any, gates ...error) error {
	if err := errors.Join(gates...); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// round keeps four significant figures: enough for any timing or ratio
// in these reports, and it keeps tiny relative errors readable.
func round(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	// Scale by an exact power of ten, so the result is the float nearest
	// the rounded decimal and marshals without trailing noise.
	k := 3 - int(math.Floor(math.Log10(math.Abs(v))))
	if k < 0 {
		p := math.Pow10(-k)
		return math.Round(v/p) * p
	}
	p := math.Pow10(k)
	return math.Round(v*p) / p
}

// ms converts a duration to rounded milliseconds.
func ms(d time.Duration) float64 { return round(float64(d.Nanoseconds()) / 1e6) }

// measure runs fn once and returns its wall clock and the peak HeapAlloc
// sampled every 2 ms while it ran. A GC first keeps earlier garbage out
// of the peak. The peak is live heap, not RSS.
func measure(fn func() error) (time.Duration, uint64, error) {
	runtime.GC()
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var st runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&st)
			if st.HeapAlloc > peak.Load() {
				peak.Store(st.HeapAlloc)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	close(done)
	<-sampled
	return wall, peak.Load(), err
}

// bestOf calls fn reps times and returns the fastest and the mean of the
// durations it reports. fn times itself, so set-up it must redo every rep
// (a fresh engine, say) can stay outside the clock; timed wraps work that
// is timed whole.
func bestOf(reps int, fn func() (time.Duration, error)) (best, mean time.Duration, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("reps must be at least 1, got %d", reps)
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		d, err := fn()
		if err != nil {
			return 0, 0, err
		}
		total += d
		if r == 0 || d < best {
			best = d
		}
	}
	return best, total / time.Duration(reps), nil
}

// timed adapts fn for bestOf by timing the whole call.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// window is one measured record path: wall clock, throughput and the
// sampled heap peak.
type window struct {
	Path          string  `json:"path"`
	WallMs        float64 `json:"wall_ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
	PeakHeapMB    float64 `json:"peak_heap_mb"`
	FileBytes     int64   `json:"file_bytes,omitempty"`
	BytesPerRec   float64 `json:"bytes_per_record,omitempty"`
}

// measureWindow runs fn, which returns how many records it handled, reps
// times under measure and reports the fastest rep with the heap peak
// across all of them.
func measureWindow(reps int, name string, fn func() (int, error)) (window, error) {
	var n int
	var peak uint64
	best, _, err := bestOf(reps, func() (time.Duration, error) {
		wall, p, err := measure(func() (err error) {
			n, err = fn()
			return err
		})
		peak = max(peak, p)
		return wall, err
	})
	if err != nil {
		return window{}, fmt.Errorf("%s: %w", name, err)
	}
	return window{
		Path:          name,
		WallMs:        ms(best),
		RecordsPerSec: round(float64(n) / best.Seconds()),
		PeakHeapMB:    round(float64(peak) / (1 << 20)),
	}, nil
}
