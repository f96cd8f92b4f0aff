package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/report"
)

// fleetSpec is the analysis reproduce and failstat run: the fleet plus
// one shard per system, with bootstrap intervals on the Weibull and
// lognormal fits.
var fleetSpec = engine.ShardSpec{
	IncludeFleet: true,
	CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
}

// fleetReps is the bootstrap replicate count, the engine's default.
const fleetReps = 200

// fleetSetupRepeats is higher than trace-scan's: generating the
// paper-sized trace takes tens of milliseconds, so more repeats are
// cheap and steady the median.
const fleetSetupRepeats = 5

// ingestRepeats is how many times a pass builds its dataset; the pass
// analyzes the last one. One build takes a few milliseconds, so a
// single sample per pass would leave ingest_p90_ms to chance.
const ingestRepeats = 5

// fleetOut is what one fleet-bootstrap pass returned.
type fleetOut struct {
	fleet  *engine.FleetResult
	eng    *engine.Engine
	table  string
	ingest []time.Duration
	// root and analyze are span ids on a traced pass.
	root, analyze int
}

// fleetBootstrap generates the paper-sized trace, then times passes of
// failures.NewDataset -> engine.AnalyzeFleet (bootstrap CIs on) ->
// report.FleetTable over it.
func fleetBootstrap(cfg *config) (*outcome, error) {
	gen := lanl.Config{Seed: cfg.seed, RateScale: cfg.scale, Workers: workers}
	var setups []float64
	var records []failures.Record
	for i := 0; i < fleetSetupRepeats; i++ {
		runtime.GC()
		sp := cfg.tr.begin("lanl.Generate", 0)
		t0 := time.Now()
		d, err := lanl.NewGenerator(gen).Generate()
		setups = append(setups, time.Since(t0).Seconds())
		cfg.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		records = d.Records()
	}

	out := newOutcome()
	var all []pass
	var ingest [][]time.Duration
	var fit, render []float64
	var last fleetOut
	err := passes(cfg, func(i int, tr *tracer) error {
		var fo fleetOut
		p, err := region(func() (int, error) {
			var err error
			fo, err = fleetPass(records, workers, cfg.seed, tr)
			return len(records), err
		})
		if err != nil {
			return err
		}
		all, ingest, last = append(all, p), append(ingest, fo.ingest), fo
		digest, err := fleetDigest(fo.fleet, fo.table)
		out.op(errors.Join(err, checkPaperBand(fo.fleet), checkCIs(fo.fleet),
			out.sameAsFirst(cfg.hooks.doctor(i, digest))))
		if tr != nil {
			fit = append(fit, secs(tr.get(fo.analyze).dur()))
			render = append(render, secs(childDur(tr, fo.root, "report.FleetTable")))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := split(cfg, all)
	var ingestPlain []time.Duration
	plainIngest, _ := split(cfg, ingest)
	for _, in := range plainIngest {
		ingestPlain = append(ingestPlain, in...)
	}
	ps := summarize(plain)
	out.e2e = map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        ps.wall,
		"cpu_s":         ps.cpu,
		"ingest_p50_ms": quantile(msList(ingestPlain), 0.50),
		"ingest_p90_ms": quantile(msList(ingestPlain), 0.90),
		"result_p50_ms": quantile(walls(plain), 0.50),
		"result_p90_ms": quantile(walls(plain), 0.90),
	}
	if cfg.tr == nil {
		return out, nil
	}

	var one fleetOut
	p1, err := region(func() (int, error) {
		var err error
		one, err = fleetPass(records, 1, cfg.seed, nil)
		return len(records), err
	})
	if err != nil {
		return nil, err
	}
	d1, err := fleetDigest(one.fleet, one.table)
	out.op(errors.Join(err, checkSame("workers=1", out.digest, cfg.hooks.doctor(-1, d1))))

	reps := float64(ciStudies(last.fleet) * fleetReps)
	out.layer = map[string]float64{
		"lanl.generate_s":     median(setups),
		"engine.fit_s":        median(fit),
		"engine.speedup_1w":   secs(p1.wall) / ps.wall,
		"dist.bootstrap_reps": reps,
		"dist.reps_per_s":     reps / median(fit),
		"report.render_s":     median(render),
		"trace.overhead_s":    summarize(traced).wall - ps.wall,
	}
	commonLayers(out.layer, last.eng, ps)
	return out, nil
}

// fleetPass is one timed fleet-bootstrap pass with w engine workers.
func fleetPass(records []failures.Record, w int, seed int64, tr *tracer) (fleetOut, error) {
	out := fleetOut{root: tr.begin("fleet-bootstrap.pass", 0)}
	defer tr.end(out.root)
	var d *failures.Dataset
	for i := 0; i < ingestRepeats; i++ {
		t0 := time.Now()
		sp := tr.begin("failures.NewDataset", out.root)
		var err error
		d, err = failures.NewDataset(records)
		tr.end(sp)
		out.ingest = append(out.ingest, time.Since(t0))
		if err != nil {
			return out, err
		}
	}
	out.eng = engine.New(engine.Options{Workers: w, BootstrapReps: fleetReps, Seed: seed})
	out.analyze = tr.begin("engine.AnalyzeFleet", out.root)
	var err error
	out.fleet, err = out.eng.AnalyzeFleet(context.Background(), d, fleetSpec)
	tr.end(out.analyze)
	if err != nil {
		return out, err
	}
	sp := tr.begin("report.FleetTable", out.root)
	out.table = report.FleetTable(out.fleet, out.eng.Level())
	tr.end(sp)
	return out, nil
}

// ciStudies counts the (study, family) pairs that carry bootstrap
// intervals; each cost one bootstrap of fleetReps replicates.
func ciStudies(r *engine.FleetResult) int {
	n := 0
	for _, s := range r.Shards {
		for _, st := range []*engine.Study{s.Interarrival, s.Repair} {
			if st != nil {
				n += len(st.CIs)
			}
		}
	}
	return n
}
