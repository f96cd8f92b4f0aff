// Fleetreport: an operator-style reliability report across the full
// 22-system fleet — the kind of summary a site like LANL would build from
// its remedy database. It combines several of the paper's analyses into one
// actionable view: per-system rates and repair medians, the fleet's worst
// nodes, and estimated steady-state availability per system.
//
// Run with: go run ./examples/fleetreport
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"hpcfail/internal/analysis"
	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/report"
	"hpcfail/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	catalog := lanl.Catalog()

	// Per-system health table: rate, repair median, availability estimate.
	rates, err := analysis.FailureRates(dataset, catalog)
	if err != nil {
		return err
	}
	repairs, err := analysis.RepairTimePerSystem(dataset, catalog)
	if err != nil {
		return err
	}
	repairBySystem := make(map[int]analysis.SystemRepair, len(repairs))
	for _, r := range repairs {
		repairBySystem[r.System] = r
	}
	table := report.NewTable("System", "HW", "Failures/yr", "Median repair (min)", "Availability")
	for _, r := range rates {
		rep := repairBySystem[r.System]
		sys, err := lanl.SystemByID(r.System)
		if err != nil {
			return err
		}
		// Steady-state node availability: MTBF/(MTBF+MTTR) from per-node
		// failure rate and mean repair.
		perNodePerYear := r.PerYear / float64(sys.Nodes)
		mtbfMin := 365.25 * 24 * 60 / perNodePerYear
		avail := mtbfMin / (mtbfMin + rep.MeanMinutes)
		table.AddRow(
			fmt.Sprintf("%d", r.System),
			string(r.HW),
			fmt.Sprintf("%.0f", r.PerYear),
			fmt.Sprintf("%.0f", rep.MedianMinutes),
			fmt.Sprintf("%.4f", avail),
		)
	}
	fmt.Fprintln(w, "Fleet health (per system)")
	fmt.Fprint(w, table.String())

	// Worst nodes fleet-wide: candidates for replacement or for hosting
	// only low-priority work.
	type nodeRate struct {
		system, node, count int
	}
	var worst []nodeRate
	for _, id := range dataset.Systems() {
		sub := dataset.BySystem(id)
		for node, count := range sub.CountByNode() {
			worst = append(worst, nodeRate{id, node, count})
		}
	}
	// Ties break by (system, node): the rows come from map iteration.
	sort.Slice(worst, func(i, j int) bool {
		a, b := worst[i], worst[j]
		if a.count != b.count {
			return a.count > b.count
		}
		if a.system != b.system {
			return a.system < b.system
		}
		return a.node < b.node
	})
	fmt.Fprintln(w, "\nTop 10 failure-prone nodes fleet-wide")
	topTable := report.NewTable("System", "Node", "Failures", "Workload note")
	for i := 0; i < 10 && i < len(worst); i++ {
		nr := worst[i]
		note := ""
		if rec := dataset.ByNode(nr.system, nr.node); rec.Len() > 0 {
			switch rec.At(0).Workload {
			case failures.WorkloadGraphics:
				note = "graphics/visualization node"
			case failures.WorkloadFrontend:
				note = "front-end node"
			}
		}
		topTable.AddRow(fmt.Sprintf("%d", nr.system), fmt.Sprintf("%d", nr.node),
			fmt.Sprintf("%d", nr.count), note)
	}
	fmt.Fprint(w, topTable.String())

	// Downtime cost attribution: where do the lost node-hours go?
	downtime, err := analysis.DowntimeBreakdown(dataset, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Figure1("Downtime attribution (fleet-wide)", downtime))

	// Repair-time tail risk: what does the 95th percentile repair look
	// like compared with the median?
	minutes := dataset.RepairTimes()
	med, err := stats.Quantile(minutes, 0.5)
	if err != nil {
		return err
	}
	p95, err := stats.Quantile(minutes, 0.95)
	if err != nil {
		return err
	}
	p99, err := stats.Quantile(minutes, 0.99)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrepair tail risk: median %.0f min, p95 %.0f min, p99 %.0f min\n", med, p95, p99)
	fmt.Fprintln(w, "the heavy lognormal tail (Figure 7a) means capacity planning must budget")
	fmt.Fprintln(w, "for repairs an order of magnitude beyond the median.")

	// How sure are we about the headline shape? The analysis engine fits
	// the worst system's TBF with bootstrap confidence intervals.
	eng := engine.New(engine.Options{BootstrapReps: 100, Seed: 1})
	fleet, err := eng.AnalyzeFleet(context.Background(), dataset.BySystem(20), engine.ShardSpec{
		CIFamilies: []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSystem 20 fit uncertainty (engine, B=100 bootstrap)")
	fmt.Fprint(w, report.FleetTable(fleet, eng.Level()))
	return nil
}
