// Command reproduce regenerates every table and figure of Schroeder &
// Gibson (DSN 2006) from the calibrated synthetic trace, printing each
// experiment together with the paper's reported values so the shapes can
// be compared side by side. EXPERIMENTS.md records one full run.
//
// Usage:
//
//	reproduce [-seed N] [-data trace.csv] [-workers N] [-bootstrap B]
//
// With -data, an existing trace is analyzed instead of generating one;
// CSV and the columnar binary format are both accepted and told apart by
// their leading bytes, never by file extension.
// All distribution fitting runs through the concurrent analysis engine:
// -workers bounds its worker pool (0 = GOMAXPROCS) and -bootstrap sets the
// resample count behind every confidence interval (negative disables CIs).
// The output is byte-identical at any worker count.
//
// With -stream (requires -data), only the fleet sweep is run, in a single
// bounded-memory pass over the trace — the mode for traces larger than
// RAM. The per-figure experiments need the materialized trace and are
// skipped.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hpcfail/internal/analysis"
	"hpcfail/internal/correlate"
	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/hazard"
	"hpcfail/internal/lanl"
	"hpcfail/internal/maintenance"
	"hpcfail/internal/report"
	"hpcfail/internal/tracefmt"
	"hpcfail/internal/trend"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "generator seed (ignored with -data); also seeds the bootstrap")
	dataPath := fs.String("data", "", "analyze an existing CSV trace instead of generating")
	workers := fs.Int("workers", 0, "analysis engine worker-pool size (0 = GOMAXPROCS)")
	bootstrap := fs.Int("bootstrap", 100, "bootstrap resamples per confidence interval (negative disables)")
	stream := fs.Bool("stream", false, "bounded-memory fleet sweep only (requires -data)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	eng := engine.New(engine.Options{Workers: *workers, BootstrapReps: *bootstrap, Seed: *seed})

	if *stream {
		if *dataPath == "" {
			return fmt.Errorf("-stream requires -data (it exists to avoid materializing a trace)")
		}
		return streamFleet(ctx, eng, *dataPath, w)
	}

	var dataset *failures.Dataset
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		bin, csv, err := tracefmt.OpenInput(f, eng.Workers())
		if err != nil {
			return fmt.Errorf("read %s: %w", *dataPath, err)
		}
		if bin != nil {
			defer bin.Close()
			dataset, err = tracefmt.ReadDataset(bin)
		} else {
			dataset, err = failures.ReadCSV(csv)
		}
		if err != nil {
			return fmt.Errorf("read %s: %w", *dataPath, err)
		}
	} else {
		d, err := lanl.NewGenerator(lanl.Config{Seed: *seed}).Generate()
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		dataset = d
	}

	catalog := lanl.Catalog()
	section := func(title string) {
		fmt.Fprintf(w, "\n%s\n%s\n", title, line(len(title)))
	}
	paper := func(format string, a ...any) {
		fmt.Fprintf(w, "paper:    "+format+"\n", a...)
	}
	measured := func(format string, a ...any) {
		fmt.Fprintf(w, "measured: "+format+"\n", a...)
	}

	fmt.Fprintf(w, "Reproduction of Schroeder & Gibson, DSN 2006 — %d failure records\n", dataset.Len())
	paper("23000 failures, 22 systems, 4750 nodes, 24101 processors, 1996-2005")
	measured("%d failures, %d systems, %d nodes, %d processors",
		dataset.Len(), len(dataset.Systems()), lanl.TotalNodes(), lanl.TotalProcs())

	// ---- Table 1 ----
	section("Table 1: systems overview")
	fmt.Fprint(w, report.Table1(catalog))

	// ---- Figure 1 ----
	section("Figure 1(a): breakdown of failures into root causes")
	hwTypes := []failures.HWType{"D", "E", "F", "G", "H"}
	bds, err := analysis.RootCauseBreakdown(dataset, hwTypes)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure1("", bds))
	all := bds[len(bds)-1]
	paper("hardware largest (30-60%%), software second (5-24%%), unknown 20-30%% except type E < 5%%")
	measured("aggregate: hardware %.0f%%, software %.0f%%, unknown %.0f%%",
		all.Percent(failures.CauseHardware), all.Percent(failures.CauseSoftware),
		all.Percent(failures.CauseUnknown))

	section("Figure 1(b): breakdown of downtime into root causes")
	dbd, err := analysis.DowntimeBreakdown(dataset, hwTypes)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure1("", dbd))
	dall := dbd[len(dbd)-1]
	paper("hardware largest, software second; unknown downtime < 5%% for most systems")
	measured("aggregate downtime: hardware %.0f%%, software %.0f%%, unknown %.0f%%",
		dall.Percent(failures.CauseHardware), dall.Percent(failures.CauseSoftware),
		dall.Percent(failures.CauseUnknown))

	// ---- Figure 2 ----
	section("Figure 2: failure rate per system, raw (a) and per processor (b)")
	rates, err := analysis.FailureRates(dataset, catalog)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure2(rates))
	rawSpread, err := analysis.SpreadPerYear(rates)
	if err != nil {
		return err
	}
	normSpread, err := analysis.SpreadPerYearPerProc(rates)
	if err != nil {
		return err
	}
	paper("raw rates 17-1159 failures/yr (68x spread); normalized rates nearly constant within a type")
	measured("raw %.0f-%.0f failures/yr (%.0fx); normalized spread %.1fx",
		rawSpread.Min, rawSpread.Max, rawSpread.MaxOverMin, normSpread.MaxOverMin)

	// ---- Figure 3 ----
	section("Figure 3: failures per node, system 20")
	sys20, err := lanl.SystemByID(20)
	if err != nil {
		return err
	}
	study, err := analysis.PerNodeCounts(dataset, sys20)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure3(study))
	graphicsShare := graphicsFailureShare(dataset.BySystem(20))
	paper("nodes 21-23 are 6%% of nodes but 20%% of failures; Poisson a poor fit, normal/lognormal good")
	measured("graphics nodes share %.0f%% of failures; Poisson rejected: %v; overdispersion %.1f",
		100*graphicsShare, study.PoissonRejected, study.Overdispersion())

	// ---- Figure 4 ----
	for _, id := range []int{5, 19} {
		sys, err := lanl.SystemByID(id)
		if err != nil {
			return err
		}
		months := int(sys.ProductionYears()*12) + 1
		if months > 60 {
			months = 60
		}
		section(fmt.Sprintf("Figure 4: failures per month over lifetime, system %d", id))
		points, err := analysis.LifecycleCurve(dataset, id, sys.Start, months)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure4(id, points))
	}
	paper("system 5 (type E): rate drops from a high start; system 19 (type G): rate grows ~20 months, then drops")

	// ---- Figure 5 ----
	section("Figure 5: failures by hour of day and day of week")
	profile, err := analysis.NewTimeOfDayProfile(dataset)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure5(profile))
	paper("peak-hour rate 2x the night's low; weekday rate nearly 2x the weekend's")
	measured("peak/trough %.2f; weekday/weekend %.2f",
		profile.PeakTroughRatio(), profile.WeekdayWeekendRatio())

	// ---- Figure 6 ----
	section("Figure 6: time between failures, system 20 / node 22, early vs late")
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	panels, err := analysis.Figure6(dataset, 20, 22, boundary)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		label string
		study *analysis.InterarrivalStudy
	}{
		{"(a)", panels.NodeEarly}, {"(b)", panels.NodeLate},
		{"(c)", panels.SystemEarly}, {"(d)", panels.SystemLate},
	} {
		fmt.Fprintln(w, report.Figure6Panel(p.label, p.study))
	}
	paper("(b): Weibull shape 0.7, C2 1.9; (a): lognormal best, C2 3.9; (c): >30%% zero interarrivals; (d): Weibull shape 0.78")
	measured("(b): shape %.2f, C2 %.1f; (a): C2 %.1f; (c): %.0f%% zeros; (d): shape %.2f",
		panels.NodeLate.WeibullShape, panels.NodeLate.Summary.C2,
		panels.NodeEarly.Summary.C2, 100*panels.SystemEarly.ZeroFraction,
		panels.SystemLate.WeibullShape)
	if *bootstrap >= 0 {
		if _, cis, err := eng.FitCI(ctx, panels.NodeLate.Seconds, dist.FamilyWeibull); err == nil && len(cis) > 0 {
			measured("(b) shape 95%% bootstrap CI: [%.2f, %.2f] — the paper's 0.7-0.8 band",
				cis[0].Lo, cis[0].Hi)
		}
	}

	// ---- Table 2 ----
	section("Table 2: time to repair by root cause")
	rows, err := analysis.RepairTimeByCause(dataset)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Table2(rows))
	paper("mean 163 (human) to 572 (environment) min; all-causes mean 355, median 54; C2 up to 293")

	// ---- Figure 7 ----
	section("Figure 7(a): repair-time distribution and fits")
	fitStudy, err := analysis.RepairTimeFits(dataset)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure7a(fitStudy))
	bestRepair, err := fitStudy.Fits.Best()
	if err != nil {
		return err
	}
	paper("lognormal best, exponential very poor")
	measured("best family: %v", bestRepair.Family)

	section("Figure 7(b, c): mean and median repair time per system")
	repairs, err := analysis.RepairTimePerSystem(dataset, catalog)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.Figure7bc(repairs))
	paper("repair times track hardware type, not system size; type E largest systems among the lowest medians")
	cons := analysis.HWTypeRepairConsistency(repairs)
	measured("within-type median spread: E %.1fx, F %.1fx, G %.1fx", cons["E"], cons["F"], cons["G"])

	// ---- Table 3 ----
	section("Table 3: related-work survey (static)")
	fmt.Fprint(w, report.Table3())

	// ---- Pareto footnote ----
	section("Footnote 1: Pareto comparison on system-wide late interarrivals")
	pareto, err := dist.FitAll(panels.SystemLate.Seconds, append(dist.StandardFamilies(), dist.FamilyPareto)...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.FitComparison(pareto))
	bestP, err := pareto.Best()
	if err != nil {
		return err
	}
	paper("Pareto not a better fit than the four standard distributions")
	measured("best family with Pareto included: %v", bestP.Family)

	// ---- Section 3 phase-type remark ----
	section("Section 3 remark: phase-type distributions")
	withHE, err := dist.FitAll(panels.SystemLate.Seconds,
		append(dist.StandardFamilies(), dist.FamilyHyperExp)...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.FitComparison(withHE))
	paper("a phase-type distribution would likely fit better, but the standard families suffice")
	if he, ok := withHE.ByFamily(dist.FamilyHyperExp); ok && he.Err == nil {
		if wb, ok := withHE.ByFamily(dist.FamilyWeibull); ok && wb.Err == nil {
			measured("hyperexp AIC %.1f vs weibull AIC %.1f — the extra phase is not worth a parameter",
				he.AIC, wb.AIC)
		}
	}

	// ---- Extensions beyond the paper ----
	section("Extensions: hazard direction, trend tests, correlation eras")
	var tbfHours []float64
	for _, s := range panels.SystemLate.Seconds {
		tbfHours = append(tbfHours, s/3600)
	}
	est, err := hazard.Empirical(tbfHours, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "empirical TBF hazard trend (system 20, 2000-05): %s\n", est.Trend())

	sys5, err := lanl.SystemByID(5)
	if err != nil {
		return err
	}
	lap, err := trend.Laplace(dataset.BySystem(5).OffsetHours(sys5.Start),
		sys5.End.Sub(sys5.Start).Hours(), 0.05)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Laplace trend, system 5 lifetime: U=%.1f -> %s (the Figure 4a decay as a statistic)\n",
		lap.U, lap.Verdict)

	eras, err := correlate.CompareEras(dataset.BySystem(20), boundary, time.Minute)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "correlated batches, system 20: %.0f%% of failures early vs %.0f%% late\n",
		100*eras.EarlyFraction, 100*eras.LateFraction)

	wbLate, ok := panels.SystemLate.Fits.ByFamily(dist.FamilyWeibull)
	if ok && wbLate.Err == nil {
		if wb, isWeibull := wbLate.Dist.(dist.Weibull); isWeibull {
			policy := maintenance.Policy{
				Lifetime:       wb,
				CostFailure:    10,
				CostPreventive: 1,
			}
			opt, err := policy.Optimize(wb.Mean()/100, wb.Mean()*20)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "age-replacement worthwhile under the fitted Weibull: %v"+
				" (decreasing hazard makes preventive node cycling counterproductive)\n",
				opt.Worthwhile)
		}
	}

	// ---- Engine fleet sweep ----
	section("Fleet sweep: per-system fits with bootstrap CIs (analysis engine)")
	fleet, err := eng.AnalyzeFleet(ctx, dataset, engine.ShardSpec{
		IncludeFleet: true,
		CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, report.FleetTable(fleet, eng.Level()))
	// The worker count is deliberately not printed: the output contract is
	// byte-identical at any -workers setting.
	hits, misses := eng.Stats()
	fmt.Fprintf(w, "engine: B=%d bootstrap resamples, fit cache %d hits / %d misses\n",
		eng.BootstrapReps(), hits, misses)
	paper("Weibull shape 0.7-0.8 for time between failures; lognormal repair medians track hardware type")
	return nil
}

// streamFleet runs the engine's one-pass fleet sweep over a CSV or
// binary trace without building a Dataset: exact streaming moments,
// sketched medians, fits on seeded reservoir subsamples.
func streamFleet(ctx context.Context, eng *engine.Engine, path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bin, csv, err := tracefmt.OpenInput(f, eng.Workers())
	if err != nil {
		return err
	}
	var src engine.RecordSource = bin
	var sc *failures.Scanner
	if bin != nil {
		// A binary trace in a regular file decodes block-parallel,
		// -workers wide; results are byte-identical at any worker
		// count because blocks re-emit in index order.
		defer bin.Close()
	} else {
		if sc, err = failures.NewScanner(csv, failures.ReadCSVOptions{SkipMalformed: true}); err != nil {
			return err
		}
		src = sc
	}
	fleet, info, err := eng.AnalyzeStream(ctx, src, engine.StreamOptions{
		Spec: engine.ShardSpec{
			IncludeFleet: true,
			CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
		},
	})
	if err != nil {
		return err
	}
	title := "Fleet sweep (streaming): per-system fits with bootstrap CIs"
	fmt.Fprintf(w, "\n%s\n%s\n", title, line(len(title)))
	fmt.Fprint(w, report.FleetTable(fleet, eng.Level()))
	fmt.Fprintf(w, "stream: %d records in one pass, sketch eps %g, reservoir %d/shard",
		info.RecordsScanned, info.SketchEpsilon, info.ReservoirSize)
	if sc != nil {
		if n := len(sc.RowErrors()); n > 0 {
			fmt.Fprintf(w, ", %d malformed rows skipped", n)
		}
	}
	if info.OutOfOrder > 0 {
		fmt.Fprintf(w, ", %d out-of-order records (interarrivals unreliable)", info.OutOfOrder)
	}
	fmt.Fprintln(w)
	return nil
}

func graphicsFailureShare(d *failures.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	graphics := d.ByWorkload(failures.WorkloadGraphics).Len()
	return float64(graphics) / float64(d.Len())
}

func line(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '='
	}
	return string(b)
}
