package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/tracefmt"
)

// traceReport is BENCH_trace.json.
type traceReport struct {
	header
	Workers       int     `json:"workers"`
	Scale         float64 `json:"rate_scale"`
	TraceRecords  int     `json:"trace_records"`
	Shards        int     `json:"shards"`
	Fused         window  `json:"fused"`
	CSVWrite      window  `json:"csv_write"`
	BinWrite      window  `json:"bin_write"`
	BinWritePar   window  `json:"bin_write_par"`
	CSVAnalyze    window  `json:"csv_analyze"`
	BinAnalyze    window  `json:"bin_analyze"`
	BinAnalyzePar window  `json:"bin_analyze_par"`
	CSVInMem      *window `json:"csv_inmem,omitempty"`
	// EncodeParSpeedup and DecodeParSpeedup are the sequential-vs-
	// parallel codec head-to-head on wall clock (>1 means the parallel
	// window was faster); the efficiency fields divide the speedup by
	// the usable parallelism min(workers, GOMAXPROCS), matching the
	// engine report's parallel_efficiency convention.
	EncodeParSpeedup         float64 `json:"bin_write_parallel_speedup"`
	DecodeParSpeedup         float64 `json:"bin_analyze_parallel_speedup"`
	ParallelEfficiencyEncode float64 `json:"parallel_efficiency_encode"`
	ParallelEfficiencyDecode float64 `json:"parallel_efficiency_decode"`
	// ParallelEncodeBytesIdentical reports that the -workers encoder
	// produced exactly the sequential writer's bytes.
	ParallelEncodeBytesIdentical bool `json:"parallel_encode_bytes_identical"`
	// BinOverCSVPipeline compares the full write+analyze round trips of
	// the two formats on records/sec (generation cost included in both
	// write windows, so the format advantage is understated).
	BinOverCSVPipeline float64 `json:"bin_over_csv_pipeline_speed"`
	// FusedBinOverCSVPath compares the fused binary pipeline
	// (bin_analyze) against the classic materialized CSV path
	// (csv_inmem) on records/sec; FusedBinOverCSVPathHeap is the same
	// comparison on peak heap.
	FusedBinOverCSVPath     float64 `json:"fused_bin_over_csv_path_speed,omitempty"`
	FusedBinOverCSVPathHeap float64 `json:"fused_bin_over_csv_path_peak_heap,omitempty"`
	CSVOverBinBytes         float64 `json:"csv_over_bin_bytes"`
	ResultsIdentical        bool    `json:"streaming_results_identical"`
	// Agreement is the statistical agreement of the streamed CSV analysis
	// (csv_analyze) with the materialized one (csv_inmem).
	Agreement *agreement `json:"agreement,omitempty"`
	Note      string     `json:"note"`
}

// agreement is the worst-case relative disagreement between streamed and
// materialized shard summaries: repairs on every shard, interarrivals on
// the single-system ones.
type agreement struct {
	MaxMeanRelErr   float64 `json:"max_mean_rel_err"`
	MaxC2RelErr     float64 `json:"max_c2_rel_err"`
	MaxMedianRelErr float64 `json:"max_median_rel_err"`
	// SketchEpsilon is the documented bound on the median's relative
	// error (against the anchored order statistic).
	SketchEpsilon float64 `json:"sketch_epsilon"`
	ShardsChecked int     `json:"shards_checked"`
}

// runTrace benchmarks the trace pipelines end to end on the identical
// seed-1 record sequence. Measured windows, each with its own wall clock
// and sampled heap peak:
//
//	fused            generator streamed straight into the engine, no file
//	csv_write        lanl.Generator.Stream -> failures.CSVWriter -> file
//	bin_write        lanl.Generator.Stream -> tracefmt.Writer -> file, with
//	                 one block encoder beside the writing goroutine
//	bin_write_par    the same, with -workers parallel block encoders
//	csv_analyze      file -> failures.Scanner -> engine.AnalyzeStream
//	bin_analyze      file -> tracefmt.Scanner -> engine.AnalyzeStream
//	bin_analyze_par  file -> tracefmt.File.ScanParallel -> engine.AnalyzeStream
//	csv_inmem        file -> failures.ReadCSV -> engine.AnalyzeFleet
//
// bin_analyze is the fused binary pipeline this format exists for, and
// bin_analyze_par its block-parallel decode; csv_inmem is the classic
// CSV path (materialize the dataset, then analyze) that failstat and
// reproduce use without -stream. Two gates must pass before the report is
// written: the streaming windows consume the identical record sequence
// and must produce DeepEqual fleet results (the formats are
// interchangeable or they are wrong), and the parallel write window must
// produce a byte-identical file (the codec's worker-count-invariance
// guarantee). The in-memory path fits on full shard samples rather than
// reservoirs, so it is compared with the streamed CSV analysis on
// statistical agreement, not bit-identity.
//
// -scale multiplies the reference failure rate; the trace grows linearly
// with it (scale 1 is ~23k records, scale 100 ~2.1M, scale 5000 ~100M,
// scale 47000 ~1B). The analysis windows are bounded-memory, so there
// the 100M–1B-record regime differs from the committed run only in wall
// clock and disk. The write windows are not: generation holds whole
// system blocks of compact records, about 30 B/record (median peak RSS
// of 30, 92 and 251 MiB for 0.53M, 2.1M and 8.5M records from lanlgen
// -stream -format bin at -workers 2). -skip-inmem drops the materialized path, the one analysis
// window that cannot survive that regime.
// -cpuprofile and -memprofile capture pprof profiles of the whole run
// (make prof-trace) for finding the fused pipeline's next serial term.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("bench trace", flag.ContinueOnError)
	out := fs.String("out", "BENCH_trace.json", "output file")
	scale := fs.Float64("scale", 100, "failure-rate scale for the generated trace")
	seed := fs.Int64("seed", 1, "trace and engine seed")
	bootstrap := fs.Int("bootstrap", -1, "bootstrap resamples per CI (negative disables, the default)")
	workers := fs.Int("workers", 0, "engine and codec worker-pool size (0 = GOMAXPROCS)")
	dir := fs.String("dir", "", "directory for the temporary trace files (default: os.TempDir)")
	skipInmem := fs.Bool("skip-inmem", false, "skip the materialized CSV path (mandatory beyond ~10M records)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	}
	if *dir == "" {
		*dir = os.TempDir()
	}
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	cfg := lanl.Config{Seed: *seed, RateScale: *scale}
	newEngine := func() *engine.Engine {
		return engine.New(engine.Options{Workers: *workers, BootstrapReps: *bootstrap, Seed: *seed})
	}
	ctx := context.Background()
	csvPath := filepath.Join(*dir, fmt.Sprintf("bench-trace-%d.csv", os.Getpid()))
	binPath := filepath.Join(*dir, fmt.Sprintf("bench-trace-%d.bin", os.Getpid()))
	binParPath := filepath.Join(*dir, fmt.Sprintf("bench-trace-%d-par.bin", os.Getpid()))
	defer os.Remove(csvPath)
	defer os.Remove(binPath)
	defer os.Remove(binParPath)

	// Fused: generator coroutine feeding the engine directly — the
	// no-disk baseline every file format is judged against.
	var fusedFleet *engine.FleetResult
	var records int
	fused, err := measureWindow(1, "fused", func() (int, error) {
		src := lanl.NewGenerator(cfg).Stream()
		defer src.Close()
		fleet, info, err := newEngine().AnalyzeStream(ctx, src, engine.StreamOptions{Spec: ciSpec})
		if err != nil {
			return 0, err
		}
		if err := src.Err(); err != nil {
			return 0, err
		}
		fusedFleet = fleet
		records = info.RecordsScanned
		return info.RecordsScanned, nil
	})
	if err != nil {
		return err
	}

	// Write windows: stream the same generator sequence to disk in each
	// format. Generation runs inside the window, identically for both.
	writeWindow := func(name, path string, open func(*os.File) (sink, error)) (window, error) {
		w, err := measureWindow(1, name, func() (int, error) { return records, writeTrace(path, cfg, open) })
		if err != nil {
			return w, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return w, err
		}
		w.FileBytes = st.Size()
		if records > 0 {
			w.BytesPerRec = round(float64(st.Size()) / float64(records))
		}
		return w, nil
	}
	binSink := func(encoders int) func(*os.File) (sink, error) {
		return func(f *os.File) (sink, error) {
			bw, err := tracefmt.NewWriter(f, tracefmt.WriterOptions{Workers: encoders})
			if err != nil {
				return sink{}, err
			}
			return sink{write: bw.Write, finish: bw.Close}, nil
		}
	}
	csvWrite, err := writeWindow("csv_write", csvPath, func(f *os.File) (sink, error) {
		cw, err := failures.NewCSVWriter(f)
		if err != nil {
			return sink{}, err
		}
		return sink{write: cw.Write, finish: cw.Flush}, nil
	})
	if err != nil {
		return err
	}
	binWrite, err := writeWindow("bin_write", binPath, binSink(0))
	if err != nil {
		return err
	}
	binWritePar, err := writeWindow("bin_write_par", binParPath, binSink(effWorkers))
	if err != nil {
		return err
	}
	seqSum, err := fileDigest(binPath)
	if err != nil {
		return err
	}
	parSum, err := fileDigest(binParPath)
	if err != nil {
		return err
	}
	sameBytes := seqSum == parSum

	// Analyze windows: scan each file back through the streaming engine.
	analyzeWindow := func(name, path string, open func(*os.File) (engine.RecordSource, error)) (*engine.FleetResult, *engine.StreamInfo, window, error) {
		var fleet *engine.FleetResult
		var info *engine.StreamInfo
		w, err := measureWindow(1, name, func() (int, error) {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			src, err := open(f)
			if err != nil {
				return 0, err
			}
			fleet, info, err = newEngine().AnalyzeStream(ctx, src, engine.StreamOptions{Spec: ciSpec})
			if err != nil {
				return 0, err
			}
			return info.RecordsScanned, nil
		})
		return fleet, info, w, err
	}
	csvFleet, csvInfo, csvAnalyze, err := analyzeWindow("csv_analyze", csvPath, func(f *os.File) (engine.RecordSource, error) {
		return failures.NewScanner(f, failures.ReadCSVOptions{})
	})
	if err != nil {
		return err
	}
	binFleet, _, binAnalyze, err := analyzeWindow("bin_analyze", binPath, func(f *os.File) (engine.RecordSource, error) {
		return tracefmt.NewScanner(f, tracefmt.ScanOptions{})
	})
	if err != nil {
		return err
	}
	var binParFleet *engine.FleetResult
	binAnalyzePar, err := measureWindow(1, "bin_analyze_par", func() (int, error) {
		tf, err := tracefmt.OpenFile(binParPath)
		if err != nil {
			return 0, err
		}
		defer tf.Close()
		ps := tf.ScanParallel(tracefmt.ScanOptions{}, effWorkers)
		defer ps.Close()
		fleet, info, err := newEngine().AnalyzeStream(ctx, ps, engine.StreamOptions{Spec: ciSpec})
		if err != nil {
			return 0, err
		}
		binParFleet = fleet
		return info.RecordsScanned, nil
	})
	if err != nil {
		return err
	}

	// The classic CSV path: materialize the dataset, then AnalyzeFleet.
	// This is what the fused binary pipeline replaces at scale.
	var inmem *window
	var agr *agreement
	if !*skipInmem {
		var memFleet *engine.FleetResult
		res, err := measureWindow(1, "csv_inmem", func() (int, error) {
			f, err := os.Open(csvPath)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			d, err := failures.ReadCSV(f)
			if err != nil {
				return 0, err
			}
			if memFleet, err = newEngine().AnalyzeFleet(ctx, d, ciSpec); err != nil {
				return 0, err
			}
			return d.Len(), nil
		})
		if err != nil {
			return err
		}
		inmem = &res
		a := compareFleets(memFleet, csvFleet)
		a.SketchEpsilon = csvInfo.SketchEpsilon
		agr = &a
	}

	var bytesGate error
	if !sameBytes {
		bytesGate = errors.New("parallel encode produced different bytes than the sequential writer")
	}
	identityGate := sameFleets(fusedFleet, csvFleet, binFleet, binParFleet)

	pipeline := func(write, analyze window) float64 {
		return float64(records) / ((write.WallMs + analyze.WallMs) / 1000)
	}
	usable := float64(min(effWorkers, runtime.GOMAXPROCS(0)))
	rep := traceReport{
		header: newHeader("trace pipelines on one seed-1 record sequence: fused, CSV and binary " +
			"write/analyze windows (sequential and block-parallel), and the materialized CSV path"),
		Workers:            effWorkers,
		Scale:              *scale,
		TraceRecords:       records,
		Shards:             len(fusedFleet.Shards),
		Fused:              fused,
		CSVWrite:           csvWrite,
		BinWrite:           binWrite,
		BinWritePar:        binWritePar,
		CSVAnalyze:         csvAnalyze,
		BinAnalyze:         binAnalyze,
		BinAnalyzePar:      binAnalyzePar,
		CSVInMem:           inmem,
		BinOverCSVPipeline: round(pipeline(binWrite, binAnalyze) / pipeline(csvWrite, csvAnalyze)),
		CSVOverBinBytes:    round(float64(csvWrite.FileBytes) / float64(binWrite.FileBytes)),

		EncodeParSpeedup:             round(binWrite.WallMs / binWritePar.WallMs),
		DecodeParSpeedup:             round(binAnalyze.WallMs / binAnalyzePar.WallMs),
		ParallelEfficiencyEncode:     round(binWrite.WallMs / binWritePar.WallMs / usable),
		ParallelEfficiencyDecode:     round(binAnalyze.WallMs / binAnalyzePar.WallMs / usable),
		ParallelEncodeBytesIdentical: sameBytes,

		ResultsIdentical: identityGate == nil,
		Agreement:        agr,
		Note: "each window is measured separately with its own sampled HeapAlloc peak " +
			"(not RSS). Write windows include generation, identically for both formats. " +
			"The _par windows rerun the binary codec with -workers block encode/decode " +
			"goroutines; their speedups are wall-clock, bounded by min(workers, gomaxprocs). " +
			"The streaming analysis windows are bounded-memory, so -scale extends them to " +
			"the 100M-1B-record regime without changing their peak heap; csv_inmem is the " +
			"one analysis window that cannot (it materializes the dataset) and is what the " +
			"fused binary pipeline replaces. The write windows are not bounded: generation " +
			"holds whole system blocks of compact records, about 30 B/record (lanlgen -stream " +
			"-format bin at -workers 2 has median peak RSS of 30, 92 and 251 MiB for 0.53M, " +
			"2.1M and 8.5M records). agreement compares csv_analyze with csv_inmem: " +
			"streaming moments are exact up to fp reassociation, medians are sketched " +
			"within sketch_epsilon of the anchored order statistic, and fits use seeded " +
			"reservoir subsamples.",
	}
	if inmem != nil {
		rep.FusedBinOverCSVPath = round(binAnalyze.RecordsPerSec / inmem.RecordsPerSec)
		rep.FusedBinOverCSVPathHeap = round(binAnalyze.PeakHeapMB / inmem.PeakHeapMB)
	}
	fmt.Printf("%d records, %d shards, %d workers on GOMAXPROCS %d\n",
		records, rep.Shards, effWorkers, rep.GOMAXPROCS)
	fmt.Printf("fused %.0f rec/s; write csv %.0f / bin %.0f rec/s; analyze csv %.0f / bin %.0f rec/s\n",
		fused.RecordsPerSec, csvWrite.RecordsPerSec, binWrite.RecordsPerSec,
		csvAnalyze.RecordsPerSec, binAnalyze.RecordsPerSec)
	fmt.Printf("parallel codec: encode %.2fx (bytes identical: %v), decode %.2fx vs sequential\n",
		rep.EncodeParSpeedup, sameBytes, rep.DecodeParSpeedup)
	if inmem != nil {
		fmt.Printf("materialized csv path %.0f rec/s at %.0f MB; fused bin pipeline %.1fx faster at %.2fx the heap\n",
			inmem.RecordsPerSec, inmem.PeakHeapMB, rep.FusedBinOverCSVPath, rep.FusedBinOverCSVPathHeap)
		fmt.Printf("streamed vs materialized csv: mean %.2e, C2 %.2e, median %.2e (eps %g)\n",
			agr.MaxMeanRelErr, agr.MaxC2RelErr, agr.MaxMedianRelErr, agr.SketchEpsilon)
	}
	fmt.Printf("bin/csv pipeline %.2fx, csv/bin size %.2fx, streaming results identical: %v\n",
		rep.BinOverCSVPipeline, rep.CSVOverBinBytes, rep.ResultsIdentical)
	return writeReport(*out, rep, bytesGate, identityGate)
}

// sameFleets is the trace identity gate. The streaming windows consumed
// the identical record sequence, so their fleet results must match
// exactly, not approximately: a mismatch means a format round trip
// corrupted a record.
func sameFleets(want *engine.FleetResult, got ...*engine.FleetResult) error {
	for _, g := range got {
		if !reflect.DeepEqual(want, g) {
			return errors.New("fleet results differ across streaming pipelines — format round trip is lossy")
		}
	}
	return nil
}

// compareFleets reports the worst-case relative disagreement between the
// materialized and streamed shard summaries.
func compareFleets(mem, stream *engine.FleetResult) agreement {
	agr := agreement{}
	relErr := func(got, want float64) float64 {
		if math.IsNaN(got) || math.IsNaN(want) {
			if math.IsNaN(got) == math.IsNaN(want) {
				return 0
			}
			return math.Inf(1)
		}
		if want == 0 {
			return math.Abs(got - want)
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	for _, ms := range mem.Shards {
		ss, ok := stream.Shard(ms.Key)
		if !ok {
			continue
		}
		pairs := []struct{ m, s *engine.Study }{{ms.Repair, ss.Repair}}
		// The generator streams records grouped by system, so a shard that
		// spans systems sees its interarrivals out of start-time order
		// (StreamInfo.OutOfOrder counts them) while the materialized path
		// sorts them; only its order-free repair study is comparable.
		if ms.Key.System != 0 {
			pairs = append(pairs, struct{ m, s *engine.Study }{ms.Interarrival, ss.Interarrival})
		}
		for _, pair := range pairs {
			if pair.m == nil || pair.s == nil {
				continue
			}
			agr.ShardsChecked++
			agr.MaxMeanRelErr = math.Max(agr.MaxMeanRelErr, relErr(pair.s.Summary.Mean, pair.m.Summary.Mean))
			agr.MaxC2RelErr = math.Max(agr.MaxC2RelErr, relErr(pair.s.Summary.C2, pair.m.Summary.C2))
			agr.MaxMedianRelErr = math.Max(agr.MaxMedianRelErr, relErr(pair.s.Summary.Median, pair.m.Summary.Median))
		}
	}
	agr.MaxMeanRelErr = round(agr.MaxMeanRelErr)
	agr.MaxC2RelErr = round(agr.MaxC2RelErr)
	agr.MaxMedianRelErr = round(agr.MaxMedianRelErr)
	return agr
}

// fileDigest streams a file through SHA-256.
func fileDigest(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// sink is a record consumer plus its flush/close step.
type sink struct {
	write  func(failures.Record) error
	finish func() error
}

// writeTrace streams the configured trace into a fresh file through the
// format-specific sink.
func writeTrace(path string, cfg lanl.Config, open func(*os.File) (sink, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s, err := open(f)
	if err != nil {
		f.Close()
		return err
	}
	rs := lanl.NewGenerator(cfg).Stream()
	defer rs.Close()
	var gerr error
	for gerr == nil && rs.Scan() {
		gerr = s.write(rs.Record())
	}
	if gerr == nil {
		gerr = rs.Err()
	}
	if gerr == nil {
		gerr = s.finish()
	}
	if cerr := f.Close(); gerr == nil {
		gerr = cerr
	}
	return gerr
}
