// Command enginebench measures the analysis engine's sequential-vs-parallel
// wall clock on the generated 22-system reference trace and writes the
// result, with machine metadata, to BENCH_engine.json. The speedup numbers
// are only meaningful alongside the recorded CPU count: on a single-core
// host every worker count collapses to ~1x, so the report also carries a
// makespan model built from measured per-task times that projects how the
// engine's sub-shard tasks (per-family fits, per-rep-block bootstraps)
// compare to whole-shard scheduling on a real multicore machine.
//
// Usage:
//
//	enginebench [-out BENCH_engine.json] [-bootstrap 32] [-reps 3]
//	            [-workers 1,2,4,8] [-gomaxprocs 1,2,4,8]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
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

type benchReport struct {
	Benchmark     string         `json:"benchmark"`
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	GoVersion     string         `json:"go_version"`
	NumCPU        int            `json:"num_cpu"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	TraceRecords  int            `json:"trace_records"`
	TraceSystems  int            `json:"trace_systems"`
	Shards        int            `json:"shards"`
	BootstrapReps int            `json:"bootstrap_reps"`
	RepsPerPoint  int            `json:"timing_reps_per_point"`
	Scaling       []scalePoint   `json:"scaling"`
	Makespan      *makespanModel `json:"makespan_model"`
	Note          string         `json:"note"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
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

func run(args []string) error {
	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
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
	spec := engine.ShardSpec{
		IncludeFleet: true,
		CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
	}
	ctx := context.Background()

	report := benchReport{
		Benchmark:     "engine.AnalyzeFleet: 4-family fits + bootstrap CIs per shard, 22-system trace",
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    startProcs,
		TraceRecords:  dataset.Len(),
		TraceSystems:  len(dataset.Systems()),
		BootstrapReps: *bootstrap,
		RepsPerPoint:  *reps,
		Note: "deterministic pipeline: output is byte-identical at every worker count " +
			"and GOMAXPROCS; wall-clock speedup is bounded by min(workers, num_cpu), " +
			"so on a single-CPU host the makespan_model carries the multicore comparison",
	}

	// Workers x GOMAXPROCS wall-clock matrix.
	for _, g := range procs {
		runtime.GOMAXPROCS(g)
		var baselineBest float64
		for _, workers := range counts {
			best, mean, misses, shards, err := timeFleet(ctx, dataset, spec,
				workers, *bootstrap, *seed, *reps)
			if err != nil {
				return err
			}
			report.Shards = shards
			if workers == counts[0] {
				baselineBest = best
			}
			usable := workers
			if g < usable {
				usable = g
			}
			report.Scaling = append(report.Scaling, scalePoint{
				GoMaxProcs:         g,
				Workers:            workers,
				BestMs:             round2(best),
				MeanMs:             round2(mean),
				SpeedupX:           round2(baselineBest / best),
				ParallelEfficiency: round2(baselineBest / best / float64(usable)),
				CacheMiss:          misses,
			})
			fmt.Printf("gomaxprocs=%d workers=%d best=%.1fms mean=%.1fms speedup=%.2fx\n",
				g, workers, best, mean, baselineBest/best)
		}
	}
	runtime.GOMAXPROCS(startProcs)

	model, err := buildMakespanModel(dataset, spec, *bootstrap, *seed, counts)
	if err != nil {
		return fmt.Errorf("makespan model: %w", err)
	}
	report.Makespan = model
	for _, p := range model.Points {
		fmt.Printf("model workers=%d shard-only=%.1fms sub-shard=%.1fms advantage=%.2fx\n",
			p.Workers, p.ShardOnlyMs, p.SubShardMs, p.AdvantageX)
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func timeFleet(ctx context.Context, d *failures.Dataset, spec engine.ShardSpec,
	workers, bootstrap int, seed int64, reps int) (best, mean float64, misses uint64, shards int, err error) {
	best = -1
	for r := 0; r < reps; r++ {
		// Fresh engine per repetition so the memo cache never hides work.
		eng := engine.New(engine.Options{Workers: workers, BootstrapReps: bootstrap, Seed: seed})
		start := time.Now()
		res, ferr := eng.AnalyzeFleet(ctx, d, spec)
		if ferr != nil {
			return 0, 0, 0, 0, ferr
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		mean += ms
		if best < 0 || ms < best {
			best = ms
		}
		shards = len(res.Shards)
		_, misses = eng.Stats()
	}
	return best, mean / float64(reps), misses, shards, nil
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
func buildMakespanModel(d *failures.Dataset, spec engine.ShardSpec,
	bootstrap int, seed int64, counts []int) (*makespanModel, error) {
	type shardSamples struct{ inter, repair []float64 }
	var shards []shardSamples
	add := func(sub *failures.Dataset) {
		shards = append(shards, shardSamples{sub.PositiveInterarrivals(), sub.RepairTimes()})
	}
	add(d)
	for _, id := range d.Systems() {
		add(d.BySystem(id))
	}

	families := dist.StandardFamilies()
	var fitTasks []float64
	var bootTasks []bootTask
	shardTasks := make([]float64, len(shards))
	for i, sh := range shards {
		for _, xs := range [][]float64{sh.inter, sh.repair} {
			if len(xs) < 10 {
				continue
			}
			s := dist.NewSample(xs)
			for _, f := range families {
				ms, err := timeBest(3, func() error {
					_, err := dist.FitSample(f, s)
					return err
				})
				if err != nil {
					continue // unfittable family: the engine skips it too
				}
				fitTasks = append(fitTasks, ms)
				shardTasks[i] += ms
			}
			for _, f := range []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal} {
				plan, err := dist.NewCIPlan(f, s, bootstrap, 0.95, seed)
				if err != nil {
					continue
				}
				ms, err := timeBest(3, func() error {
					plan.RunBlock(0, bootstrap)
					return nil
				})
				if err != nil {
					return nil, err
				}
				bootTasks = append(bootTasks, bootTask{totalMs: ms, reps: bootstrap})
				shardTasks[i] += ms
			}
		}
	}

	var total, largest float64
	for _, t := range shardTasks {
		total += t
		if t > largest {
			largest = t
		}
	}
	model := &makespanModel{
		ShardTasks:    len(shardTasks),
		FitTasks:      len(fitTasks),
		LargestTaskMs: round2(largest),
		TotalWorkMs:   round2(total),
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
				hi := lo + size
				if hi > b.reps {
					hi = b.reps
				}
				blocks = append(blocks, perRep*float64(hi-lo))
			}
		}
		sub := lptMakespan(fitTasks, w) + lptMakespan(blocks, w)
		model.Points = append(model.Points, makespanPoint{
			Workers:     w,
			ShardOnlyMs: round2(shardOnly),
			SubShardMs:  round2(sub),
			AdvantageX:  round2(shardOnly / sub),
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
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// timeBest runs fn n times and returns the best wall clock in ms.
func timeBest(n int, fn func() error) (float64, error) {
	best := -1.0
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if best < 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
