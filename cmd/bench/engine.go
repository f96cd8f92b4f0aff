package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"sort"
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

// makespanPoint is the LPT (longest-processing-time-first) makespan of the
// measured task set at one worker count, scheduled as whole shards and
// as sub-shard tasks. The model schedules real measured task durations, so
// it captures the trace's shard-size skew exactly; it assumes perfect
// cores and no scheduling overhead, which favors neither schedule.
type makespanPoint struct {
	Workers     int     `json:"workers"`
	ShardOnlyMs float64 `json:"shard_only_lpt_ms"`
	SubShardMs  float64 `json:"sub_shard_lpt_ms"`
	// AdvantageX is shard_only over sub_shard: >1 means sub-shard tasks
	// finish first at this worker count.
	AdvantageX float64 `json:"sub_shard_advantage_x"`
}

type makespanModel struct {
	ShardTasks    int             `json:"shard_tasks"`
	FitTasks      int             `json:"fit_tasks"`
	LargestTaskMs float64         `json:"largest_shard_task_ms"`
	TotalWorkMs   float64         `json:"total_work_ms"`
	Note          string          `json:"note"`
	Points        []makespanPoint `json:"points"`
}

// engineReport is BENCH_engine.json.
type engineReport struct {
	header
	TraceRecords  int            `json:"trace_records"`
	TraceSystems  int            `json:"trace_systems"`
	Shards        int            `json:"shards"`
	BootstrapReps int            `json:"bootstrap_reps"`
	RepsPerPoint  int            `json:"timing_reps_per_point"`
	Scaling       []scalePoint   `json:"scaling"`
	Makespan      *makespanModel `json:"makespan_model"`
	Note          string         `json:"note"`
}

// ciSpec is the analysis the engine and trace benchmarks both run:
// the fleet aggregate plus every system, with Weibull and lognormal
// intervals.
var ciSpec = engine.ShardSpec{
	IncludeFleet: true,
	CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
}

// shardSubsets lists ciSpec's shards of d: the fleet, then each system.
func shardSubsets(d *failures.Dataset) []*failures.Dataset {
	subs := []*failures.Dataset{d}
	for _, id := range d.Systems() {
		subs = append(subs, d.BySystem(id))
	}
	return subs
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
// speedup is bounded by min(workers, num_cpu), so the report also carries
// a makespan model built from measured per-task times that projects how
// the engine's sub-shard tasks (per-family fits, per-rep-block
// bootstraps) compare to whole-shard scheduling at worker counts beyond
// the host's cores.
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
			"and GOMAXPROCS; wall-clock speedup is bounded by min(workers, num_cpu), " +
			"so the makespan_model carries the comparison at worker counts beyond the host's cores",
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
	runtime.GOMAXPROCS(startProcs)

	model, err := buildMakespanModel(dataset, *bootstrap, *seed, counts)
	if err != nil {
		return fmt.Errorf("makespan model: %w", err)
	}
	rep.Makespan = model
	for _, p := range model.Points {
		fmt.Printf("model workers=%d shard-only=%.1fms sub-shard=%.1fms advantage=%.2fx\n",
			p.Workers, p.ShardOnlyMs, p.SubShardMs, p.AdvantageX)
	}
	return writeReport(*out, rep)
}

// bootTask is one (sample, family) bootstrap: totalMs over reps resamples,
// split into per-rep-block tasks by the same span sizing the engine uses.
type bootTask struct {
	totalMs float64
	reps    int
}

// buildMakespanModel measures every task the engine would schedule on this
// trace — one fit per (sample, family) and one bootstrap run per CI — then
// computes LPT makespans for both schedules at each worker count. Shard-only
// schedules the per-shard sums in one phase; sub-shard schedules the fit
// tasks and the rep-block tasks in two phases, mirroring the engine's
// barriers. Prepare and merge costs are omitted from both alike:
// fitting and resampling dominate.
func buildMakespanModel(d *failures.Dataset, bootstrap int, seed int64, counts []int) (*makespanModel, error) {
	subs := shardSubsets(d)
	families := dist.StandardFamilies()
	var fitTasks []float64
	var bootTasks []bootTask
	shardTasks := make([]float64, len(subs))
	for i, sub := range subs {
		for _, xs := range [][]float64{sub.PositiveInterarrivals(), sub.RepairTimes()} {
			if len(xs) < 10 {
				continue
			}
			s := dist.NewSample(xs)
			for _, f := range families {
				t, _, err := bestOf(3, timed(func() error {
					_, err := dist.FitSample(f, s)
					return err
				}))
				if err != nil {
					continue // unfittable family: the engine skips it too
				}
				fitTasks = append(fitTasks, float64(t)/1e6)
				shardTasks[i] += float64(t) / 1e6
			}
			for _, f := range ciSpec.CIFamilies {
				plan, err := dist.NewCIPlan(f, s, bootstrap, 0.95, seed)
				if err != nil {
					continue
				}
				t, _, err := bestOf(3, timed(func() error {
					plan.RunBlock(0, bootstrap)
					return nil
				}))
				if err != nil {
					return nil, err
				}
				bootTasks = append(bootTasks, bootTask{totalMs: float64(t) / 1e6, reps: bootstrap})
				shardTasks[i] += float64(t) / 1e6
			}
		}
	}

	var total, largest float64
	for _, t := range shardTasks {
		total += t
		largest = max(largest, t)
	}
	model := &makespanModel{
		ShardTasks:    len(shardTasks),
		FitTasks:      len(fitTasks),
		LargestTaskMs: round(largest),
		TotalWorkMs:   round(total),
		Note: "LPT schedule of measured per-task times; shard-only makespan is floored by " +
			"the largest shard, sub-shard splits it into per-family fits and per-rep-block bootstraps",
	}
	for _, w := range counts {
		shardOnly := lptMakespan(shardTasks, w)
		// Sub-shard: fit phase then bootstrap phase, blocks sized as the
		// engine sizes them for this worker count.
		var blocks []float64
		for _, b := range bootTasks {
			perRep := b.totalMs / float64(b.reps)
			size := (b.reps + 4*w - 1) / (4 * w)
			if size < 8 {
				size = 8
			}
			for lo := 0; lo < b.reps; lo += size {
				hi := min(lo+size, b.reps)
				blocks = append(blocks, perRep*float64(hi-lo))
			}
		}
		sub := lptMakespan(fitTasks, w) + lptMakespan(blocks, w)
		model.Points = append(model.Points, makespanPoint{
			Workers:     w,
			ShardOnlyMs: round(shardOnly),
			SubShardMs:  round(sub),
			AdvantageX:  round(shardOnly / sub),
		})
	}
	return model, nil
}

// lptMakespan assigns tasks largest-first to the least-loaded of w workers
// and returns the maximum load.
func lptMakespan(tasks []float64, w int) float64 {
	if w < 1 {
		w = 1
	}
	sorted := append([]float64(nil), tasks...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, w)
	for _, t := range sorted {
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += t
	}
	return slices.Max(loads)
}
