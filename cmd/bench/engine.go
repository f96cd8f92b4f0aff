package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

// scalePoint is one cell of the workers x GOMAXPROCS wall-clock matrix.
type scalePoint struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	BestMs     float64 `json:"best_ms"`
	MeanMs     float64 `json:"mean_ms"`
	// SpeedupX is best_ms at workers=1 (same GOMAXPROCS) over this best_ms.
	SpeedupX float64 `json:"speedup_vs_1_worker"`
	// ParallelEfficiency is speedup over the usable parallelism
	// min(workers, gomaxprocs); 1.0 is perfect scaling.
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	CacheMiss          uint64  `json:"fit_cache_misses"`
}

// engineReport is BENCH_engine.json.
type engineReport struct {
	header
	TraceRecords  int          `json:"trace_records"`
	TraceSystems  int          `json:"trace_systems"`
	Shards        int          `json:"shards"`
	BootstrapReps int          `json:"bootstrap_reps"`
	RepsPerPoint  int          `json:"timing_reps_per_point"`
	Scaling       []scalePoint `json:"scaling"`
	Note          string       `json:"note"`
}

// ciSpec is the analysis the engine and trace benchmarks both run:
// the fleet aggregate plus every system, with Weibull and lognormal
// intervals.
var ciSpec = engine.ShardSpec{
	IncludeFleet: true,
	CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
}

// timeFleet times engine.AnalyzeFleet over ciSpec, each rep on a fresh
// engine, and returns the shard count and the fits and intervals the
// last rep computed with the timings.
func timeFleet(reps int, d *failures.Dataset, opts engine.Options) (best, mean time.Duration, shards int, misses uint64, err error) {
	best, mean, err = bestOf(reps, func() (time.Duration, error) {
		eng := engine.New(opts)
		start := time.Now()
		res, err := eng.AnalyzeFleet(context.Background(), d, ciSpec)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		shards = len(res.Shards)
		_, misses = eng.Stats()
		return wall, nil
	})
	return best, mean, shards, misses, err
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// runEngine measures the analysis engine's sequential-vs-parallel wall
// clock on the generated 22-system reference trace. The speedup numbers
// are only meaningful alongside the recorded CPU count: wall-clock
// speedup is bounded by min(workers, num_cpu), and worker counts beyond
// the host's cores measure nothing about the scheduler's grain.
func runEngine(args []string) error {
	fs := flag.NewFlagSet("bench engine", flag.ContinueOnError)
	out := fs.String("out", "BENCH_engine.json", "output file")
	bootstrap := fs.Int("bootstrap", 32, "bootstrap resamples per CI")
	reps := fs.Int("reps", 3, "timing repetitions per point (best and mean recorded)")
	workersFlag := fs.String("workers", "1,2,4,8", "comma-separated worker counts")
	procsFlag := fs.String("gomaxprocs", "", "comma-separated GOMAXPROCS values (default: current only)")
	seed := fs.Int64("seed", 1, "trace and bootstrap seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseCounts(*workersFlag)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	startProcs := runtime.GOMAXPROCS(0)
	procs := []int{startProcs}
	if *procsFlag != "" {
		if procs, err = parseCounts(*procsFlag); err != nil {
			return fmt.Errorf("-gomaxprocs: %w", err)
		}
	}
	defer runtime.GOMAXPROCS(startProcs)

	dataset, err := lanl.NewGenerator(lanl.Config{Seed: *seed}).Generate()
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	rep := engineReport{
		header:        newHeader("engine.AnalyzeFleet: 4-family fits + bootstrap CIs per shard, 22-system trace"),
		TraceRecords:  dataset.Len(),
		TraceSystems:  len(dataset.Systems()),
		BootstrapReps: *bootstrap,
		RepsPerPoint:  *reps,
		Note: "deterministic pipeline: output is byte-identical at every worker count " +
			"and GOMAXPROCS; wall-clock speedup is bounded by min(workers, num_cpu)",
	}

	// Workers x GOMAXPROCS wall-clock matrix.
	for _, g := range procs {
		runtime.GOMAXPROCS(g)
		var baseline time.Duration
		for _, workers := range counts {
			best, mean, shards, misses, err := timeFleet(*reps, dataset,
				engine.Options{Workers: workers, BootstrapReps: *bootstrap, Seed: *seed})
			if err != nil {
				return err
			}
			rep.Shards = shards
			if workers == counts[0] {
				baseline = best
			}
			speedup := float64(baseline) / float64(best)
			rep.Scaling = append(rep.Scaling, scalePoint{
				GoMaxProcs:         g,
				Workers:            workers,
				BestMs:             ms(best),
				MeanMs:             ms(mean),
				SpeedupX:           round(speedup),
				ParallelEfficiency: round(speedup / float64(min(workers, g))),
				CacheMiss:          misses,
			})
			fmt.Printf("gomaxprocs=%d workers=%d best=%.1fms mean=%.1fms speedup=%.2fx\n",
				g, workers, ms(best), ms(mean), speedup)
		}
	}
	return writeReport(*out, rep)
}
