package main

import (
	"flag"
	"fmt"
	"runtime"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

// genReport is BENCH_gen.json.
type genReport struct {
	header
	Seed         int64   `json:"seed"`
	RateScale    float64 `json:"rate_scale"`
	Workers      int     `json:"workers"`
	Reps         int     `json:"reps"`
	TraceRecords int     `json:"trace_records"`
	Reference    window  `json:"reference_sequential"`
	Compiled1    window  `json:"compiled_workers_1"`
	CompiledN    window  `json:"compiled_workers_n"`
	Stream       window  `json:"stream_workers_n"`
	Speedup1     float64 `json:"speedup_workers_1"`
	SpeedupN     float64 `json:"speedup_workers_n"`
	// ParallelEfficiencyN is the compiled path's workers-1-to-workers-N
	// scaling over the usable parallelism min(workers, gomaxprocs).
	ParallelEfficiencyN float64 `json:"parallel_efficiency_workers_n"`
	AllocsPerRecord     float64 `json:"allocs_per_record_draw_path"`
	StreamHeap1xMB      float64 `json:"stream_peak_heap_1x_mb"`
	StreamHeap2xMB      float64 `json:"stream_peak_heap_2x_mb"`
	MatHeap1xMB         float64 `json:"materialized_peak_heap_1x_mb"`
	MatHeap2xMB         float64 `json:"materialized_peak_heap_2x_mb"`
	IdentityChecked     bool    `json:"identity_checked"`
	Note                string  `json:"note"`
}

// runGen benchmarks the trace generator: the frozen sequential reference
// path (lanl.RefGenerate) against the compiled generator at one and many
// workers, plus the streaming mode's bounded-memory claim. The optimized
// output is compared record-for-record against the reference at both
// worker counts before anything is timed.
//
// The allocs-per-record figure isolates the record-draw path (cause,
// detail, repair) by differencing allocations across two trace sizes, so
// fixed setup costs cancel. Stream-mode peak heap is reported at -scale
// and at twice -scale; a bounded pipeline shows peak heap roughly
// independent of trace size while the materializing path doubles.
func runGen(args []string) error {
	fs := flag.NewFlagSet("bench gen", flag.ContinueOnError)
	out := fs.String("out", "BENCH_gen.json", "output file")
	seed := fs.Int64("seed", 1, "generator seed")
	workers := fs.Int("workers", 8, "worker count for the parallel passes")
	reps := fs.Int("reps", 5, "timed repetitions per path (best rep reported)")
	scale := fs.Float64("scale", 1, "failure-rate scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}

	cfg := lanl.Config{Seed: *seed, RateScale: *scale}

	// Identity first: nothing below is worth timing if the optimized
	// generator has drifted from the reference.
	ref, err := lanl.RefGenerate(cfg)
	if err != nil {
		return fmt.Errorf("reference generate: %w", err)
	}
	for _, w := range []int{1, *workers} {
		c := cfg
		c.Workers = w
		d, err := lanl.NewGenerator(c).Generate()
		if err != nil {
			return fmt.Errorf("generate (workers=%d): %w", w, err)
		}
		if err := identical(d, ref); err != nil {
			return fmt.Errorf("workers=%d output diverges from reference: %w", w, err)
		}
	}

	refRes, err := measureWindow(*reps, "reference", func() (int, error) {
		d, err := lanl.RefGenerate(cfg)
		if err != nil {
			return 0, err
		}
		return d.Len(), nil
	})
	if err != nil {
		return err
	}
	genPass := func(name string, w int, rateScale float64) (window, error) {
		return measureWindow(*reps, name, func() (int, error) {
			c := cfg
			c.Workers = w
			c.RateScale = rateScale
			d, err := lanl.NewGenerator(c).Generate()
			if err != nil {
				return 0, err
			}
			return d.Len(), nil
		})
	}
	c1Res, err := genPass("compiled w=1", 1, *scale)
	if err != nil {
		return err
	}
	cnRes, err := genPass(fmt.Sprintf("compiled w=%d", *workers), *workers, *scale)
	if err != nil {
		return err
	}
	streamPass := func(rateScale float64) (window, error) {
		return measureWindow(*reps, "stream", func() (int, error) {
			c := cfg
			c.Workers = *workers
			c.RateScale = rateScale
			n := 0
			err := lanl.NewGenerator(c).GenerateStream(func(failures.Record) error {
				n++
				return nil
			})
			return n, err
		})
	}
	streamRes, err := streamPass(*scale)
	if err != nil {
		return err
	}
	// Heap-vs-size: stream and materializing passes at 1x and 2x scale.
	stream2x, err := streamPass(2 * *scale)
	if err != nil {
		return err
	}
	mat2x, err := genPass("materialized 2x", *workers, 2**scale)
	if err != nil {
		return err
	}

	allocs, err := allocsPerRecord(cfg)
	if err != nil {
		return err
	}

	rep := genReport{
		header:    newHeader("trace generation: frozen sequential reference vs compiled parallel vs streaming"),
		Seed:      *seed,
		RateScale: *scale,
		Workers:   *workers,
		Reps:      *reps,

		TraceRecords:        ref.Len(),
		Reference:           refRes,
		Compiled1:           c1Res,
		CompiledN:           cnRes,
		Stream:              streamRes,
		Speedup1:            round(refRes.WallMs / c1Res.WallMs),
		SpeedupN:            round(refRes.WallMs / cnRes.WallMs),
		ParallelEfficiencyN: round(c1Res.WallMs / cnRes.WallMs / float64(min(*workers, runtime.GOMAXPROCS(0)))),
		AllocsPerRecord:     round(allocs),
		StreamHeap1xMB:      streamRes.PeakHeapMB,
		StreamHeap2xMB:      stream2x.PeakHeapMB,
		MatHeap1xMB:         cnRes.PeakHeapMB,
		MatHeap2xMB:         mat2x.PeakHeapMB,
		IdentityChecked:     true,
		Note: "every path re-verified record-identical to lanl.RefGenerate before timing; " +
			"best of reps reported. allocs_per_record isolates the cause/detail/repair draw " +
			"path by differencing two trace sizes so fixed setup costs cancel. The workers=1 " +
			"speedup comes from compiled draw tables, cached profile curves and the " +
			"key-merge sort rather than parallelism; stream peak heap stays flat as the trace " +
			"doubles while the materialized path grows with it.",
	}
	fmt.Printf("reference: %.1f ms; compiled w=1: %.1f ms (%.2fx); w=%d: %.1f ms (%.2fx)\n",
		refRes.WallMs, c1Res.WallMs, rep.Speedup1, *workers, cnRes.WallMs, rep.SpeedupN)
	fmt.Printf("stream: %.1f ms, peak heap %.1f MB (1x) / %.1f MB (2x); materialized %.1f / %.1f MB\n",
		streamRes.WallMs, rep.StreamHeap1xMB, rep.StreamHeap2xMB, rep.MatHeap1xMB, rep.MatHeap2xMB)
	fmt.Printf("draw path: %.3f allocs/record\n", allocs)
	return writeReport(*out, rep)
}

// identical compares two datasets field by field.
func identical(got, want *failures.Dataset) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d records vs %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		a, b := got.At(i), want.At(i)
		if a.System != b.System || a.Node != b.Node || a.HW != b.HW ||
			a.Workload != b.Workload || a.Cause != b.Cause || a.Detail != b.Detail ||
			!a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
			return fmt.Errorf("record %d differs", i)
		}
	}
	return nil
}

// allocsPerRecord estimates the per-record heap allocations of the draw
// path by differencing total allocations across two trace sizes: the
// profile, catalog and buffer setup costs are (close to) shared, so the
// slope is the marginal cost per record, which the compiled tables hold
// at zero.
func allocsPerRecord(cfg lanl.Config) (float64, error) {
	count := func(scale float64) (uint64, int, error) {
		c := cfg
		c.RateScale = scale
		c.Workers = 1
		g := lanl.NewGenerator(c)
		// Warm the process-wide caches out of the measurement.
		if _, err := g.Generate(); err != nil {
			return 0, 0, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := g.Generate()
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, d.Len(), nil
	}
	base := cfg.RateScale
	if base == 0 {
		base = 1
	}
	m1, n1, err := count(base)
	if err != nil {
		return 0, err
	}
	m2, n2, err := count(2 * base)
	if err != nil {
		return 0, err
	}
	if n2 <= n1 {
		return 0, fmt.Errorf("allocs probe: trace did not grow (%d -> %d records)", n1, n2)
	}
	// Signed difference: runtime background allocations can make the
	// smaller run measure more mallocs than the larger one, and unsigned
	// subtraction would wrap that noise into an absurd positive figure.
	per := (float64(m2) - float64(m1)) / float64(n2-n1)
	if per < 0 {
		per = 0
	}
	return per, nil
}
