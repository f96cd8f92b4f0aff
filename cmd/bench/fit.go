package main

import (
	"flag"
	"fmt"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/stats"
)

// familyResult is one frozen-reference vs kernel head-to-head.
type familyResult struct {
	Family       string  `json:"family"`
	N            int     `json:"sample_n"`
	RefNsOp      int64   `json:"ref_ns_op"`
	KernelNsOp   int64   `json:"kernel_ns_op"`
	SpeedupX     float64 `json:"speedup_x"`
	RefAllocsOp  int64   `json:"ref_allocs_op"`
	KernAllocsOp int64   `json:"kernel_allocs_op"`
}

type ciResult struct {
	familyResult
	Reps             int   `json:"bootstrap_reps"`
	KernAllocsPerRep int64 `json:"kernel_allocs_per_extra_rep"`
	RefAllocsPerRep  int64 `json:"ref_allocs_per_extra_rep"`
}

// workloadResult is the full engine workload at one worker: the slice-path
// replay against engine.AnalyzeFleet. Worker scaling is the engine
// benchmark's job.
type workloadResult struct {
	Workers      int     `json:"workers"`
	Fits         uint64  `json:"fit_cache_misses"`
	BeforeBestMs float64 `json:"slice_path_best_ms"`
	BeforeMeanMs float64 `json:"slice_path_mean_ms"`
	AfterBestMs  float64 `json:"kernel_best_ms"`
	AfterMeanMs  float64 `json:"kernel_mean_ms"`
	// SpeedupX is slice-path over kernel, best against best.
	SpeedupX float64 `json:"speedup_x"`
}

type fitAgreement struct {
	Samples         int  `json:"samples"`
	FitAllIdentical bool `json:"fit_all_bit_identical"`
	// FrozenCIIdentical: the frozen slice-path reference (RefFitCI) and the
	// frozen sequential-stream reference (RefStreamFitCI) still agree bit
	// for bit — the pre-rewrite history is pinned.
	FrozenCIIdentical bool `json:"frozen_ci_pair_bit_identical"`
	// CIPartitionInvariant: the live counter-seeded FitCISample equals a
	// split-and-reordered rep-block merge of the same plan, bit for bit.
	CIPartitionInvariant bool `json:"ci_partition_invariant"`
}

// fitReport is BENCH_fit.json.
type fitReport struct {
	header
	TraceRecords  int            `json:"trace_records"`
	Shards        int            `json:"shards"`
	BootstrapReps int            `json:"bootstrap_reps"`
	RepsPerPoint  int            `json:"timing_reps_per_point"`
	Agreement     fitAgreement   `json:"agreement"`
	Families      []familyResult `json:"families"`
	FitCI         []ciResult     `json:"fit_ci"`
	Workload      workloadResult `json:"engine_workload"`
	Note          string         `json:"note"`
}

// shardSamples reproduces the engine workload's sample inventory: the fleet
// aggregate plus every system, each contributing its positive interarrival
// and repair-time samples when they meet the default minimum size.
func shardSamples(d *failures.Dataset, minN int) [][]float64 {
	var out [][]float64
	for _, sub := range shardSubsets(d) {
		for _, xs := range [][]float64{sub.PositiveInterarrivals(), sub.RepairTimes()} {
			if len(xs) >= minN {
				out = append(out, xs)
			}
		}
	}
	return out
}

// runFit prices the precomputed-transform fit kernels against the frozen
// slice-path fitters they replaced, on the generated 22-system reference
// trace, in three layers:
//
//   - per-family fit ns/op and allocs/op (frozen reference vs kernel) on
//     the fleet interarrival sample;
//   - the Weibull bootstrap-CI wall time and allocation profile, including
//     the marginal allocations per bootstrap rep (zero for the kernel);
//   - the full engine workload — every shard's 4-family comparison plus
//     Weibull/lognormal intervals, 276 fits — replayed on the slice path
//     versus engine.AnalyzeFleet at one worker.
//
// An agreement pass asserting the kernel results are bit-identical to the
// reference on every shard sample runs before any timing.
func runFit(args []string) error {
	fs := flag.NewFlagSet("bench fit", flag.ContinueOnError)
	out := fs.String("out", "BENCH_fit.json", "output file")
	bootstrap := fs.Int("bootstrap", 32, "bootstrap resamples per CI")
	reps := fs.Int("reps", 3, "timing repetitions per point (best and mean recorded)")
	seed := fs.Int64("seed", 1, "trace seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dataset, err := lanl.NewGenerator(lanl.Config{Seed: *seed}).Generate()
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	samples := shardSamples(dataset, 10)

	rep := fitReport{
		header:        newHeader("dist fit kernels: precomputed sample transforms vs frozen slice path"),
		TraceRecords:  dataset.Len(),
		Shards:        len(dataset.Systems()) + 1,
		BootstrapReps: *bootstrap,
		RepsPerPoint:  *reps,
		Note: "slice path = frozen pre-kernel fitters (dist.RefFit*); " +
			"kernel = Sample-transform fitters with counter-seeded bootstrap reps; " +
			"fit results verified bit-identical and CI results partition-invariant before timing",
	}

	// Agreement pass: the kernels must reproduce the reference bits on
	// every shard sample before any timing is trusted.
	rep.Agreement, err = checkAgreement(samples, *bootstrap)
	if err != nil {
		return err
	}

	// Per-family microbenchmarks on the fleet interarrival sample.
	fleet := samples[0]
	s := dist.NewSample(fleet)
	for _, f := range dist.StandardFamilies() {
		res := benchPair(f, len(fleet), func() error {
			_, err := dist.RefFit(f, fleet)
			return err
		}, func() error {
			_, err := dist.FitSample(f, s)
			return err
		})
		rep.Families = append(rep.Families, res)
		fmt.Printf("fit %-12s ref=%dns kernel=%dns (%.2fx, allocs %d -> %d)\n",
			f, res.RefNsOp, res.KernelNsOp, res.SpeedupX, res.RefAllocsOp, res.KernAllocsOp)
	}

	// Bootstrap-CI benchmark: whole-call cost plus the marginal allocations
	// of one extra rep (zero for the kernel's gather loop).
	for _, f := range ciSpec.CIFamilies {
		res, err := benchCI(f, fleet, *bootstrap)
		if err != nil {
			return err
		}
		rep.FitCI = append(rep.FitCI, res)
		fmt.Printf("fitCI %-10s ref=%dns kernel=%dns (%.2fx, allocs/extra-rep %d -> %d)\n",
			f, res.RefNsOp, res.KernelNsOp, res.SpeedupX, res.RefAllocsPerRep, res.KernAllocsPerRep)
	}

	rep.Workload, err = timeWorkload(dataset, *bootstrap, *seed, *reps)
	if err != nil {
		return err
	}
	fmt.Printf("engine workload (%d fits): slice=%.1fms kernel=%.1fms speedup=%.2fx\n",
		rep.Workload.Fits, rep.Workload.BeforeBestMs, rep.Workload.AfterBestMs, rep.Workload.SpeedupX)
	return writeReport(*out, rep)
}

func checkAgreement(samples [][]float64, bootstrap int) (fitAgreement, error) {
	ag := fitAgreement{Samples: len(samples), FitAllIdentical: true,
		FrozenCIIdentical: true, CIPartitionInvariant: true}
	for i, xs := range samples {
		s := dist.NewSample(xs)
		ref, refErr := dist.RefFitAll(xs, dist.StandardFamilies()...)
		ker, kerErr := dist.FitAllSample(s, dist.StandardFamilies()...)
		if (refErr == nil) != (kerErr == nil) {
			return ag, fmt.Errorf("sample %d: fit-all error mismatch: %v vs %v", i, refErr, kerErr)
		}
		if refErr == nil && !comparisonsEqual(ref, ker) {
			ag.FitAllIdentical = false
		}
		for j, f := range ciSpec.CIFamilies {
			seed := int64(1000*i + j)
			// The frozen pair: slice-path and sequential-stream references
			// pin the same historical bits.
			refD, refCIs, refErr := dist.RefFitCI(f, xs, bootstrap, 0.95, seed)
			frzD, frzCIs, frzErr := dist.RefStreamFitCI(f, s, bootstrap, 0.95, seed)
			if (refErr == nil) != (frzErr == nil) {
				return ag, fmt.Errorf("sample %d %v: frozen fit-CI error mismatch: %v vs %v", i, f, refErr, frzErr)
			}
			if refErr == nil && !ciEqual(refD, refCIs, frzD, frzCIs) {
				ag.FrozenCIIdentical = false
			}
			// The live counter-seeded path: a one-block call must equal a
			// split-and-reordered rep-block merge of the same plan.
			kerD, kerCIs, kerErr := dist.FitCISample(f, s, bootstrap, 0.95, seed)
			plan, planErr := dist.NewCIPlan(f, s, bootstrap, 0.95, seed)
			if planErr != nil {
				if kerErr == nil {
					return ag, fmt.Errorf("sample %d %v: plan error %v but direct call succeeded", i, f, planErr)
				}
				continue
			}
			half := bootstrap / 2
			pD, pCIs, pErr := plan.Merge([]dist.CIBlock{
				plan.RunBlock(half, bootstrap), plan.RunBlock(0, half),
			})
			if (kerErr == nil) != (pErr == nil) {
				ag.CIPartitionInvariant = false
				continue
			}
			if kerErr == nil && !ciEqual(kerD, kerCIs, pD, pCIs) {
				ag.CIPartitionInvariant = false
			}
		}
	}
	if !ag.FitAllIdentical || !ag.FrozenCIIdentical || !ag.CIPartitionInvariant {
		return ag, fmt.Errorf("agreement pass failed: %+v", ag)
	}
	return ag, nil
}

func ciEqual(aD dist.Continuous, a []dist.ParamCI, bD dist.Continuous, b []dist.ParamCI) bool {
	if !paramsEqual(aD, bD) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func comparisonsEqual(a, b *dist.Comparison) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.Family != y.Family || (x.Err == nil) != (y.Err == nil) {
			return false
		}
		if x.Err != nil {
			continue
		}
		if x.NLL != y.NLL || x.AIC != y.AIC || x.KS != y.KS || !paramsEqual(x.Dist, y.Dist) {
			return false
		}
	}
	return true
}

func paramsEqual(a, b dist.Continuous) bool {
	pa, ok := a.(dist.Parameterized)
	if !ok {
		return false
	}
	pb, ok := b.(dist.Parameterized)
	if !ok {
		return false
	}
	va, vb := pa.ParamValues(), pb.ParamValues()
	if len(va) != len(vb) {
		return false
	}
	for i := range va {
		if va[i] != vb[i] {
			return false
		}
	}
	return true
}

func benchCI(f dist.Family, xs []float64, reps int) (ciResult, error) {
	const level = 0.95
	if _, _, err := dist.RefFitCI(f, xs, reps, level, 1); err != nil {
		return ciResult{}, err
	}
	s := dist.NewSample(xs)
	pair := benchPair(f, len(xs), func() error {
		_, _, err := dist.RefFitCI(f, xs, reps, level, 1)
		return err
	}, func() error {
		_, _, err := dist.FitCISample(f, s, reps, level, 1)
		return err
	})
	// Marginal allocations per extra rep: difference between a double-rep
	// and single-rep call, divided by the extra reps. The kernel's gather
	// loop reuses its scratch buffers, so this must come out 0.
	refPerRep := allocsPerExtraRep(func(r int) {
		_, _, _ = dist.RefFitCI(f, xs, r, level, 1)
	}, reps)
	kerPerRep := allocsPerExtraRep(func(r int) {
		_, _, _ = dist.FitCISample(f, s, r, level, 1)
	}, reps)
	return ciResult{familyResult: pair, Reps: reps, RefAllocsPerRep: refPerRep, KernAllocsPerRep: kerPerRep}, nil
}

// benchPair times the frozen reference and the kernel for one family
// with testing.Benchmark.
func benchPair(f dist.Family, n int, ref, kernel func() error) familyResult {
	bench := func(fn func() error) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	r, k := bench(ref), bench(kernel)
	return familyResult{
		Family:       f.String(),
		N:            n,
		RefNsOp:      r.NsPerOp(),
		KernelNsOp:   k.NsPerOp(),
		SpeedupX:     round(float64(r.NsPerOp()) / float64(k.NsPerOp())),
		RefAllocsOp:  r.AllocsPerOp(),
		KernAllocsOp: k.AllocsPerOp(),
	}
}

// allocsPerExtraRep measures the marginal heap allocations of one
// additional bootstrap rep by differencing calls at reps and 2*reps.
func allocsPerExtraRep(call func(reps int), reps int) int64 {
	single := int64(testing.AllocsPerRun(5, func() { call(reps) }))
	double := int64(testing.AllocsPerRun(5, func() { call(2 * reps) }))
	per := (double - single) / int64(reps)
	if per < 0 {
		per = 0
	}
	return per
}

// timeWorkload times the full engine workload at one worker: a sequential
// slice-path replay of every fit the engine performs (the pre-kernel
// cost), then engine.AnalyzeFleet (the kernel cost, including sample
// interning and result merging).
func timeWorkload(d *failures.Dataset, bootstrap int, seed int64, reps int) (workloadResult, error) {
	beforeBest, beforeMean, err := bestOf(reps, timed(func() error {
		// Mirror the pre-kernel AnalyzeFleet shard by shard: it sliced the
		// dataset and extracted both samples inside the run, so the replay
		// pays for that too.
		subs := make([]*failures.Dataset, 0, len(d.Systems())+1)
		subs = append(subs, d.Filter(func(failures.Record) bool { return true }))
		for _, id := range d.Systems() {
			subs = append(subs, d.Filter(func(rec failures.Record) bool { return rec.System == id }))
		}
		i := 0
		for _, sub := range subs {
			for _, xs := range [][]float64{sub.PositiveInterarrivals(), sub.RepairTimes()} {
				if len(xs) < 10 {
					continue
				}
				if _, err := stats.Summarize(xs); err != nil {
					return err
				}
				cmp, err := dist.RefFitAll(xs, dist.StandardFamilies()...)
				if err != nil {
					return err
				}
				for j, f := range ciSpec.CIFamilies {
					if fr, ok := cmp.ByFamily(f); !ok || fr.Err != nil {
						continue
					}
					if _, _, err := dist.RefFitCI(f, xs, bootstrap, 0.95, int64(1000*i+j)); err != nil {
						return err
					}
				}
				i++
			}
		}
		return nil
	}))
	if err != nil {
		return workloadResult{}, err
	}

	afterBest, afterMean, _, fits, err := timeFleet(reps, d,
		engine.Options{Workers: 1, BootstrapReps: bootstrap, Seed: seed})
	if err != nil {
		return workloadResult{}, err
	}
	return workloadResult{
		Workers:      1,
		Fits:         fits,
		BeforeBestMs: ms(beforeBest),
		BeforeMeanMs: ms(beforeMean),
		AfterBestMs:  ms(afterBest),
		AfterMeanMs:  ms(afterMean),
		SpeedupX:     round(float64(beforeBest) / float64(afterBest)),
	}, nil
}
