package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/report"
	"hpcfail/internal/tracefmt"
)

// scanOptions is trace-scan's analysis: the fleet aggregate plus one
// shard per system, no bootstrap intervals, and the default reservoir
// and sketch accuracy.
var scanOptions = engine.StreamOptions{Spec: engine.ShardSpec{IncludeFleet: true}}

// setupRepeats is how many times trace-scan writes its trace; setup_s
// is the median.
const setupRepeats = 3

// scanOut is what one trace-scan pass returned.
type scanOut struct {
	fleet       *engine.FleetResult
	info        *engine.StreamInfo
	eng         *engine.Engine
	table       string
	fileRecords int
	blocks      int
	// toEOI runs from the pass's first call to the end of its input.
	toEOI time.Duration
	// root and analyze are span ids on a traced pass.
	root, analyze int
}

// traceScan streams the seed's trace into a tracefmt file, then times
// passes of tracefmt.OpenFile -> File.ScanParallel ->
// engine.AnalyzeStream -> report.FleetTable over it.
func traceScan(cfg *config) (*outcome, error) {
	path := filepath.Join(cfg.dir, "trace.hpctrc")
	gen := lanl.Config{Seed: cfg.seed, RateScale: cfg.scale, Workers: workers}
	var setups []float64
	var written, unordered int
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		written, unordered, err = writeTrace(path, gen, cfg.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	var all []pass
	var toEOI []time.Duration
	var decodeWait, fold, fit, render []float64
	var last scanOut
	err = passes(cfg, func(i int, tr *tracer) error {
		var so scanOut
		p, err := region(func() (int, error) {
			var err error
			so, err = scanPass(path, workers, cfg.seed, tr, cfg.hooks)
			return written, err
		})
		if err != nil {
			return err
		}
		all, toEOI, last = append(all, p), append(toEOI, so.toEOI), so
		digest, err := fleetDigest(so.fleet, so.table)
		out.op(errors.Join(err,
			checkConserved(written, so.fileRecords, so.info.RecordsScanned, so.info.OutOfOrder, unordered),
			out.sameAsFirst(cfg.hooks.doctor(i, digest))))
		if tr != nil {
			dw, fo, fi := streamTimes(tr, so.analyze)
			decodeWait = append(decodeWait, secs(dw))
			fold = append(fold, secs(fo))
			fit = append(fit, secs(fi))
			render = append(render, secs(childDur(tr, so.root, "report.FleetTable")))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := split(cfg, all)
	eoiPlain, _ := split(cfg, toEOI)
	ps := summarize(plain)
	out.e2e = map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        ps.wall,
		"cpu_s":         ps.cpu,
		"ingest_p50_ms": quantile(msList(eoiPlain), 0.50),
		"ingest_p90_ms": quantile(msList(eoiPlain), 0.90),
		"result_p50_ms": quantile(walls(plain), 0.50),
		"result_p90_ms": quantile(walls(plain), 0.90),
	}
	if cfg.tr == nil {
		return out, nil
	}

	// Worker invariance: one worker must reproduce the two-worker digest,
	// and its wall time gives the speedup.
	var one scanOut
	p1, err := region(func() (int, error) {
		var err error
		one, err = scanPass(path, 1, cfg.seed, nil, cfg.hooks)
		return written, err
	})
	if err != nil {
		return nil, err
	}
	d1, err := fleetDigest(one.fleet, one.table)
	out.op(errors.Join(err, checkSame("workers=1", out.digest, cfg.hooks.doctor(-1, d1))))

	inter, repair, err := fileSamples(path)
	if err != nil {
		return nil, err
	}
	addNs, err := addProbe(inter, repair)
	if err != nil {
		return nil, err
	}
	out.layer = map[string]float64{
		"lanl.generate_s":           secs(cfg.tr.counter("lanl.generate")) / setupRepeats,
		"tracefmt.encode_s":         secs(cfg.tr.counter("tracefmt.encode")) / setupRepeats,
		"tracefmt.bytes_per_record": float64(st.Size()) / float64(written),
		"tracefmt.blocks":           float64(last.blocks),
		"tracefmt.decode_wait_s":    median(decodeWait),
		"engine.fold_s":             median(fold),
		"engine.fit_s":              median(fit),
		"engine.speedup_1w":         secs(p1.wall) / ps.wall,
		"streamstats.add_ns":        addNs,
		"report.render_s":           median(render),
		"trace.overhead_s":          summarize(traced).wall - ps.wall,
	}
	commonLayers(out.layer, last.eng, ps)
	return out, nil
}

// writeTrace streams the generator's records into a tracefmt file with
// the parallel encoder. It returns how many it wrote and how many of
// those started before an earlier record. On the traced run it counts
// the time spent waiting for the generator and inside the encoder.
func writeTrace(path string, gen lanl.Config, tr *tracer) (written, unordered int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w, err := tracefmt.NewWriter(f, tracefmt.WriterOptions{Workers: workers})
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	src := lanl.NewGenerator(gen).Stream()
	defer src.Close()
	var latest time.Time
	for err == nil {
		t0 := tr.now()
		ok := src.Scan()
		tr.since("lanl.generate", t0)
		if !ok {
			break
		}
		r := src.Record()
		if r.Start.Before(latest) {
			unordered++
		} else {
			latest = r.Start
		}
		t0 = tr.now()
		err = w.Write(r)
		tr.since("tracefmt.encode", t0)
	}
	if err == nil {
		err = src.Err()
	}
	// Close also stops the encoder pool, so it runs on every path.
	t0 := tr.now()
	cerr := w.Close()
	tr.since("tracefmt.encode", t0)
	if err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return w.Count(), unordered, err
}

// scanPass is one timed trace-scan pass over the file at path with w
// decode and engine workers.
func scanPass(path string, w int, seed int64, tr *tracer, h hooks) (scanOut, error) {
	out := scanOut{root: tr.begin("trace-scan.pass", 0)}
	defer tr.end(out.root)
	t0 := time.Now()
	sp := tr.begin("tracefmt.OpenFile", out.root)
	tf, err := tracefmt.OpenFile(path)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	defer tf.Close()
	out.fileRecords, out.blocks = tf.Records(), len(tf.Blocks())
	ps := tf.ScanParallel(tracefmt.ScanOptions{}, w)
	defer ps.Close()

	out.analyze = tr.begin("engine.AnalyzeStream", out.root)
	eoi := &eoiSource{BatchSource: ps, tr: tr, parent: out.analyze}
	var src engine.BatchSource = eoi
	if h.source != nil {
		src = h.source(src)
	}
	out.eng = engine.New(engine.Options{Workers: w, BootstrapReps: -1, Seed: seed})
	out.fleet, out.info, err = out.eng.AnalyzeStream(context.Background(), src, scanOptions)
	tr.end(out.analyze)
	if err != nil {
		return out, err
	}
	out.toEOI = eoi.eoi.Sub(t0)

	sp = tr.begin("report.FleetTable", out.root)
	out.table = report.FleetTable(out.fleet, out.eng.Level())
	tr.end(sp)
	return out, nil
}

// fileSamples reads the trace back sequentially and extracts the
// streamstats probe's samples from it.
func fileSamples(path string) (inter, repair []float64, err error) {
	tf, err := tracefmt.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	defer tf.Close()
	sc := tf.Scan(tracefmt.ScanOptions{})
	inter, repair = failureSamples(func(yield func(*failures.Record) bool) {
		for {
			b, serr := sc.ScanBatch()
			if serr != nil {
				err = serr
				return
			}
			if b == nil {
				return
			}
			for i := range b {
				if !yield(&b[i]) {
					return
				}
			}
		}
	})
	return inter, repair, err
}
