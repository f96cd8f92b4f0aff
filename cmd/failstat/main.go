// Command failstat runs a single analysis from the paper against a failure
// trace in the repository's CSV format or the columnar binary trace
// format (lanlgen -format bin); the format is detected from the file's
// leading bytes, not its name.
//
// Usage:
//
//	failstat -data trace.csv -analysis rootcause
//	failstat -data trace.csv -analysis pernode -system 20
//	failstat -data trace.csv -analysis interarrival -system 20 -node 22 -split 2000
//	failstat -data trace.csv -analysis fleet -workers 4 -bootstrap 100
//
// Analyses: rootcause, downtime, rates, pernode, lifecycle, timeofday,
// interarrival, repair, repair-systems, availability, details, trend,
// hazard, batches, acf, kstest, changepoint, fleet.
//
// The fitting analyses (interarrival, repair, fleet) run through the
// concurrent analysis engine: -workers bounds its pool and -bootstrap sets
// the resample count behind the fleet analysis' confidence intervals.
//
// -stream runs the fleet analysis in one bounded-memory pass, never
// materializing the trace: summaries come from one-pass accumulators
// (exact moments, sketched medians within -epsilon relative error) and
// fits from a seeded uniform subsample of at most -reservoir observations
// per shard. It handles traces far larger than RAM:
//
//	failstat -data big-trace.csv -analysis fleet -stream
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
	"hpcfail/internal/report"
	"hpcfail/internal/stats"
	"hpcfail/internal/streamstats"
	"hpcfail/internal/tracefmt"
	"hpcfail/internal/trend"
)

var paperHWTypes = []failures.HWType{"D", "E", "F", "G", "H"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failstat:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("failstat", flag.ContinueOnError)
	dataPath := fs.String("data", "", "CSV failure trace (required)")
	which := fs.String("analysis", "rootcause", "analysis to run")
	system := fs.Int("system", 20, "system ID for per-system analyses")
	node := fs.Int("node", 22, "node ID for the interarrival analysis")
	split := fs.Int("split", 2000, "boundary year for early/late interarrival windows")
	months := fs.Int("months", 40, "months for the lifecycle curve")
	cdf := fs.Bool("cdf", false, "also print the empirical-vs-fitted CDF series (interarrival, repair)")
	workers := fs.Int("workers", 0, "analysis engine worker-pool size (0 = GOMAXPROCS)")
	bootstrap := fs.Int("bootstrap", 100, "bootstrap resamples per fleet confidence interval (negative disables)")
	seed := fs.Int64("seed", 1, "bootstrap base seed")
	stream := fs.Bool("stream", false, "one-pass bounded-memory ingest (fleet analysis only)")
	epsilon := fs.Float64("epsilon", 0, fmt.Sprintf("streaming quantile-sketch relative error, in [%g, 1) (0 = default %g)",
		streamstats.MinSketchEpsilon, streamstats.DefaultSketchEpsilon))
	reservoir := fs.Int("reservoir", 0, "streaming per-shard fitting subsample cap (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	ctx := context.Background()
	eng := engine.New(engine.Options{Workers: *workers, BootstrapReps: *bootstrap, Seed: *seed})
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
	}
	if *stream {
		if *which != "fleet" {
			return fmt.Errorf("-stream supports only -analysis fleet, got %q", *which)
		}
		return streamFleet(ctx, eng, bin, csv, w, *epsilon, *reservoir)
	}
	var dataset *failures.Dataset
	if bin != nil {
		dataset, err = tracefmt.ReadDataset(bin)
	} else {
		dataset, err = failures.ReadCSV(csv)
	}
	if err != nil {
		return fmt.Errorf("read %s: %w", *dataPath, err)
	}

	switch *which {
	case "rootcause":
		bds, err := analysis.RootCauseBreakdown(dataset, presentTypes(dataset))
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure1("Figure 1(a): failures by root cause", bds))
	case "downtime":
		bds, err := analysis.DowntimeBreakdown(dataset, presentTypes(dataset))
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure1("Figure 1(b): downtime by root cause", bds))
	case "rates":
		rates, err := analysis.FailureRates(dataset, lanl.Catalog())
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure2(rates))
	case "pernode":
		sys, err := lanl.SystemByID(*system)
		if err != nil {
			return err
		}
		study, err := analysis.PerNodeCounts(dataset, sys)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure3(study))
	case "lifecycle":
		sys, err := lanl.SystemByID(*system)
		if err != nil {
			return err
		}
		points, err := analysis.LifecycleCurve(dataset, *system, sys.Start, *months)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure4(*system, points))
	case "timeofday":
		p, err := analysis.NewTimeOfDayProfile(dataset)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure5(p))
	case "interarrival":
		boundary := time.Date(*split, 1, 1, 0, 0, 0, 0, time.UTC)
		panels, err := analysis.Figure6(dataset, *system, *node, boundary)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.Figure6Panel("(a)", panels.NodeEarly))
		fmt.Fprintln(w, report.Figure6Panel("(b)", panels.NodeLate))
		fmt.Fprintln(w, report.Figure6Panel("(c)", panels.SystemEarly))
		fmt.Fprintln(w, report.Figure6Panel("(d)", panels.SystemLate))
		if *cdf {
			if err := printCDF(w, "CDF series, panel (d)", panels.SystemLate.Seconds, panels.SystemLate.Fits); err != nil {
				return err
			}
		}
	case "repair":
		rows, err := analysis.RepairTimeByCause(dataset)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Table2(rows))
		study, err := analysis.RepairTimeFits(dataset)
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure7a(study))
		if *cdf {
			if err := printCDF(w, "CDF series, Figure 7(a)", study.Minutes, study.Fits); err != nil {
				return err
			}
		}
	case "repair-systems":
		repairs, err := analysis.RepairTimePerSystem(dataset, lanl.Catalog())
		if err != nil {
			return err
		}
		fmt.Fprint(w, report.Figure7bc(repairs))
	case "availability":
		avail, err := analysis.AvailabilityPerSystem(dataset, lanl.Catalog())
		if err != nil {
			return err
		}
		t := report.NewTable("System", "HW", "Failures/node/yr", "MTTR (min)", "Availability")
		for _, a := range avail {
			t.AddRow(fmt.Sprintf("%d", a.System), string(a.HW),
				fmt.Sprintf("%.2f", a.FailuresPerNodeYear),
				fmt.Sprintf("%.0f", a.MTTRMinutes),
				fmt.Sprintf("%.5f", a.Availability))
		}
		fmt.Fprint(w, t.String())
	case "details":
		rows, err := analysis.DetailBreakdown(dataset.BySystem(*system), 12)
		if err != nil {
			return err
		}
		t := report.NewTable("Low-level cause", "Count", "Share of all failures")
		for _, r := range rows {
			label := r.Detail
			if label == "" {
				label = "(unspecified)"
			}
			t.AddRow(label, report.FormatCount(r.Count), fmt.Sprintf("%.1f%%", 100*r.Share))
		}
		fmt.Fprintf(w, "Detailed root causes, system %d\n%s", *system, t.String())
	case "trend":
		sys, err := lanl.SystemByID(*system)
		if err != nil {
			return err
		}
		events := dataset.BySystem(*system).OffsetHours(sys.Start)
		horizon := sys.End.Sub(sys.Start).Hours()
		lap, err := trend.Laplace(events, horizon, 0.05)
		if err != nil {
			return err
		}
		pl, err := trend.FitPowerLaw(events, horizon)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Trend of system %d over its lifetime\n", *system)
		fmt.Fprintf(w, "Laplace test: U=%.2f p=%.3g -> %s\n", lap.U, lap.P, lap.Verdict)
		fmt.Fprintf(w, "Crow-AMSAA power law: beta=%.3f eta=%.3g -> %s\n",
			pl.Beta, pl.Eta, pl.Verdict(0.1))
	case "hazard":
		sub := dataset.BySystem(*system)
		hours := make([]float64, 0, sub.Len())
		for _, s := range sub.PositiveInterarrivals() {
			hours = append(hours, s/3600)
		}
		est, err := hazard.Empirical(hours, 8)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Empirical TBF hazard, system %d (failures/hour by uptime octile)\n", *system)
		labels := make([]string, len(est.Rates))
		for i := range est.Rates {
			labels[i] = fmt.Sprintf("[%.1f, %.1f)h", est.Edges[i], est.Edges[i+1])
		}
		fmt.Fprint(w, report.BarChart(labels, est.Rates, 40))
		fmt.Fprintf(w, "trend: %s\n", est.Trend())
	case "acf":
		sub := dataset.BySystem(*system)
		acf, err := stats.Autocorrelation(sub.PositiveInterarrivals(), 10)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Autocorrelation of TBF, system %d (renewal models assume ~0)\n", *system)
		t := report.NewTable("Lag", "r")
		for lag, r := range acf {
			t.AddRow(fmt.Sprintf("%d", lag+1), fmt.Sprintf("%+.4f", r))
		}
		fmt.Fprint(w, t.String())
	case "kstest":
		sub := dataset.BySystem(*system)
		xs := sub.PositiveInterarrivals()
		t := report.NewTable("Family", "KS", "Bootstrap p-value", "Replications")
		for _, fam := range dist.StandardFamilies() {
			res, err := dist.BootstrapKSTest(fam, xs, 100, 1)
			if err != nil {
				t.AddRow(fam.String(), "-", "fit failed", "-")
				continue
			}
			t.AddRow(fam.String(), fmt.Sprintf("%.4f", res.KS),
				fmt.Sprintf("%.3f", res.P), fmt.Sprintf("%d", res.Replications))
		}
		fmt.Fprintf(w, "Parametric-bootstrap KS tests, system %d TBF\n%s", *system, t.String())
	case "changepoint":
		sys, err := lanl.SystemByID(*system)
		if err != nil {
			return err
		}
		events := dataset.BySystem(*system).OffsetHours(sys.Start)
		cp, err := trend.FindChangePoint(events, sys.End.Sub(sys.Start).Hours())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Most likely failure-rate change, system %d\n", *system)
		fmt.Fprintf(w, "at %.0f h (%.1f months into production)\n", cp.At, cp.At/(24*30.44))
		fmt.Fprintf(w, "rate: %.4f -> %.4f failures/h (log-likelihood ratio %.1f)\n",
			cp.RateBefore, cp.RateAfter, cp.LogLikRatio)
	case "fleet":
		fleet, err := eng.AnalyzeFleet(ctx, dataset, engine.ShardSpec{
			IncludeFleet: true,
			CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fleet sweep: per-system TBF and TTR fits with bootstrap CIs\n")
		fmt.Fprint(w, report.FleetTable(fleet, eng.Level()))
		hits, misses := eng.Stats()
		fmt.Fprintf(w, "engine: %d workers, B=%d, fit cache %d hits / %d misses\n",
			eng.Workers(), eng.BootstrapReps(), hits, misses)
	case "batches":
		sub := dataset.BySystem(*system)
		stats, err := correlate.Summarize(sub, time.Minute)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Simultaneous-failure batches, system %d (1-minute window)\n", *system)
		fmt.Fprintf(w, "batches: %d   records in batches: %d (%.1f%% of all)\n",
			stats.Batches, stats.RecordsInBatches, 100*stats.BatchFraction)
		fmt.Fprintf(w, "mean batch size: %.1f nodes   max: %d nodes\n", stats.MeanSize, stats.MaxSize)
	default:
		return fmt.Errorf("unknown analysis %q", *which)
	}
	return nil
}

// streamFleet is the -stream path: one bounded-memory pass over the trace
// through the streaming engine without ever building a Dataset. The
// report is the same fleet table; summaries carry the documented
// sketch/reservoir accuracy trade instead of being exact. A binary
// trace arrives as bin, decoding on a -workers wide block pool over the
// footer index when the input is a regular file and block by block on
// this goroutine from a pipe; either way the engine gets whole blocks
// and the output is byte-identical. A CSV trace arrives as csv.
func streamFleet(ctx context.Context, eng *engine.Engine, bin *tracefmt.Scanner, csv io.Reader, w io.Writer, epsilon float64, reservoir int) error {
	var src engine.RecordSource = bin
	var sc *failures.Scanner
	if bin == nil {
		var err error
		sc, err = failures.NewScanner(csv, failures.ReadCSVOptions{SkipMalformed: true})
		if err != nil {
			return err
		}
		src = sc
	}
	fleet, info, err := eng.AnalyzeStream(ctx, src, engine.StreamOptions{
		Spec: engine.ShardSpec{
			IncludeFleet: true,
			CIFamilies:   []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
		},
		SketchEpsilon: epsilon,
		ReservoirSize: reservoir,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fleet sweep (streaming): per-system TBF and TTR fits with bootstrap CIs\n")
	fmt.Fprint(w, report.FleetTable(fleet, eng.Level()))
	hits, misses := eng.Stats()
	fmt.Fprintf(w, "engine: %d workers, B=%d, fit cache %d hits / %d misses\n",
		eng.Workers(), eng.BootstrapReps(), hits, misses)
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

// printCDF renders the empirical CDF of xs alongside the fitted models at
// up to 25 sample points — the data series behind the paper's CDF plots.
func printCDF(w io.Writer, title string, xs []float64, fits *dist.Comparison) error {
	e, err := stats.NewECDF(xs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n%s", title, report.CDFSeries(e, fits.Results, 25))
	return nil
}

// presentTypes returns the paper's figure-1 hardware types that actually
// appear in the dataset, so subset traces still render.
func presentTypes(d *failures.Dataset) []failures.HWType {
	present := make(map[failures.HWType]bool)
	for _, hw := range d.HWTypes() {
		present[hw] = true
	}
	var out []failures.HWType
	for _, hw := range paperHWTypes {
		if present[hw] {
			out = append(out, hw)
		}
	}
	return out
}
