package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"hpcfail/internal/sweep"
)

// sweepPath is one worker count's best run.
type sweepPath struct {
	Workers        int     `json:"workers"`
	WallMs         float64 `json:"wall_ms"`
	ConfigsPerSec  float64 `json:"configs_per_sec"`
	SimsPerSec     float64 `json:"sims_per_sec"`
	Configurations int     `json:"configurations"`
	Simulations    int     `json:"simulations"`
	// ParallelEfficiency is this path's configs/sec over the workers=1
	// path's, divided by the usable parallelism min(workers, gomaxprocs).
	ParallelEfficiency float64 `json:"parallel_efficiency"`
}

// sweepReport is BENCH_sweep.json.
type sweepReport struct {
	header
	Seed            int64     `json:"seed"`
	Seeds           int       `json:"seeds"`
	Grid            string    `json:"grid"`
	GridPoints      int       `json:"grid_points"`
	Reps            int       `json:"reps"`
	Workers1        sweepPath `json:"workers_1"`
	WorkersN        sweepPath `json:"workers_n"`
	Scaling         float64   `json:"scaling_vs_workers"`
	IdentityChecked bool      `json:"identity_checked"`
	Note            string    `json:"note"`
}

// benchGrid is sized so a rep takes on the order of a second: enough
// simulations that per-task scheduling overhead is amortized, few enough
// that several reps at two worker counts stay quick.
const benchGrid = "scenario=calm,bursts,slow-repair interval=2,8,32 " +
	"retry=none,expo:0.5:24:0.5 fence=none,window:2:72:24"

// runSweep benchmarks the sweep engine: the same grid evaluated at one
// worker and at -workers, reporting configurations per second and the
// parallel scaling factor. The multi-worker result's TSV must match the
// single-worker TSV byte for byte before the report is written.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("bench sweep", flag.ContinueOnError)
	out := fs.String("out", "BENCH_sweep.json", "output file")
	seed := fs.Int64("seed", 1, "master seed")
	workers := fs.Int("workers", 0, "worker count for the parallel pass (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 3, "timed repetitions per worker count (best rep reported)")
	seeds := fs.Int("seeds", 3, "seed replicates per configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *workers < 1 || *reps < 1 || *seeds < 1 {
		return fmt.Errorf("-workers, -reps and -seeds must be at least 1")
	}
	grid, err := sweep.ParseSweepSpec(benchGrid)
	if err != nil {
		return err
	}

	opts := sweep.Options{
		Grid: grid, Seeds: *seeds, Seed: *seed,
		// Refinement off: the benchmark measures the fan-out path, and the
		// optimizer stages are inherently sequential.
		Refine: false,
	}
	// run times the sweep at one worker count; every rep's result is
	// identical, so the last one stands for all.
	run := func(workers int) (time.Duration, *sweep.Result, error) {
		o := opts
		o.Workers = workers
		var res *sweep.Result
		best, _, err := bestOf(*reps, timed(func() (err error) {
			res, err = sweep.Run(o)
			return err
		}))
		return best, res, err
	}
	time1, res1, err := run(1)
	if err != nil {
		return err
	}
	timeN, resN, err := run(*workers)
	if err != nil {
		return err
	}
	var gate error
	if res1.TSV() != resN.TSV() {
		gate = fmt.Errorf("determinism violation: workers 1 and %d disagree", *workers)
	}

	rep := sweepReport{
		header: newHeader("sweep"),
		Seed:   *seed, Seeds: *seeds,
		Grid: grid.String(), GridPoints: grid.Size(), Reps: *reps,
		Workers1:        newSweepPath(1, time1, res1),
		WorkersN:        newSweepPath(*workers, timeN, resN),
		IdentityChecked: gate == nil,
		Note: "best of -reps runs per worker count; identity_checked means the " +
			"multi-worker TSV matched the single-worker TSV byte-for-byte",
	}
	rep.Scaling = round(rep.WorkersN.ConfigsPerSec / rep.Workers1.ConfigsPerSec)
	rep.Workers1.ParallelEfficiency = 1
	rep.WorkersN.ParallelEfficiency = round(rep.Scaling / float64(min(*workers, runtime.GOMAXPROCS(0))))
	fmt.Printf("%d configs, workers 1: %.1f configs/s, workers %d: %.1f configs/s (%.2fx)\n",
		rep.Workers1.Configurations, rep.Workers1.ConfigsPerSec,
		*workers, rep.WorkersN.ConfigsPerSec, rep.Scaling)
	return writeReport(*out, rep, gate)
}

func newSweepPath(workers int, wall time.Duration, res *sweep.Result) sweepPath {
	sec := wall.Seconds()
	return sweepPath{
		Workers: workers, WallMs: ms(wall),
		ConfigsPerSec:  round(float64(res.Configurations) / sec),
		SimsPerSec:     round(float64(res.Simulations) / sec),
		Configurations: res.Configurations,
		Simulations:    res.Simulations,
	}
}
