package report

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hpcfail/internal/analysis"
	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/stats"
)

var (
	refOnce sync.Once
	refData *failures.Dataset
	refErr  error
)

func referenceDataset(t *testing.T) *failures.Dataset {
	t.Helper()
	refOnce.Do(func() {
		refData, refErr = lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	})
	if refErr != nil {
		t.Fatalf("generate: %v", refErr)
	}
	return refData
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("A", "Long header", "C")
	tb.AddRow("1", "2")
	tb.AddRow("longer cell", "x", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All rows same width.
	if len(lines[0]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Fatalf("misaligned rows:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("missing rule:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Fatalf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Fatalf("over-max Bar = %q", got)
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" || Bar(1, 10, 0) != "" {
		t.Fatal("degenerate Bar should be empty")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "bb"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "##########") {
		t.Fatalf("max bar should fill width:\n%s", out)
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Fatalf("half bar should be half width:\n%s", out)
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		23456:   "23,456",
		1234567: "1,234,567",
	}
	for n, want := range cases {
		if got := FormatCount(n); got != want {
			t.Errorf("FormatCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTable1(t *testing.T) {
	out := Table1(lanl.Catalog())
	if !strings.Contains(out, "Table 1") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "6,152") {
		t.Fatalf("system 20 proc count missing:\n%s", out)
	}
	if !strings.Contains(out, "NUMA") || !strings.Contains(out, "SMP") {
		t.Fatal("missing architecture labels")
	}
	if got := strings.Count(out, "\n"); got != 25 { // title + header + rule + 22 systems
		t.Fatalf("line count = %d", got)
	}
}

func TestFigure1Render(t *testing.T) {
	d := referenceDataset(t)
	bds, err := analysis.RootCauseBreakdown(d, []failures.HWType{"D", "E"})
	if err != nil {
		t.Fatal(err)
	}
	out := Figure1("Figure 1(a)", bds)
	if !strings.Contains(out, "Hardware") || !strings.Contains(out, "All systems") {
		t.Fatalf("figure 1 incomplete:\n%s", out)
	}
	if !strings.Contains(out, "%") {
		t.Fatal("missing percent signs")
	}
}

func TestFigure2Render(t *testing.T) {
	d := referenceDataset(t)
	rates, err := analysis.FailureRates(d, lanl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	out := Figure2(rates)
	if strings.Count(out, "\n") != 25 { // title + header + rule + 22
		t.Fatalf("unexpected figure 2 size:\n%s", out)
	}
}

func TestFigure3Render(t *testing.T) {
	d := referenceDataset(t)
	sys20, err := lanl.SystemByID(20)
	if err != nil {
		t.Fatal(err)
	}
	study, err := analysis.PerNodeCounts(d, sys20)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure3(study)
	for _, want := range []string{"node 22", "poisson", "normal", "lognormal", "best"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 3 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure4Render(t *testing.T) {
	d := referenceDataset(t)
	sys5, err := lanl.SystemByID(5)
	if err != nil {
		t.Fatal(err)
	}
	points, err := analysis.LifecycleCurve(d, 5, sys5.Start, 24)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure4(5, points)
	if !strings.Contains(out, "early-drop") {
		t.Fatalf("figure 4 should classify system 5 as early-drop:\n%s", out)
	}
	if !strings.Contains(out, "month 23") {
		t.Fatal("missing months")
	}
}

func TestFigure5Render(t *testing.T) {
	d := referenceDataset(t)
	p, err := analysis.NewTimeOfDayProfile(d)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure5(p)
	for _, want := range []string{"00:00", "23:00", "Sun", "Sat", "peak/trough"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 5 missing %q", want)
		}
	}
}

func TestFigure6PanelRender(t *testing.T) {
	d := referenceDataset(t)
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	panels, err := analysis.Figure6(d, 20, 22, boundary)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure6Panel("(b)", panels.NodeLate)
	for _, want := range []string{"per-node", "2000-2005", "weibull", "hazard decreasing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 6 panel missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Render(t *testing.T) {
	d := referenceDataset(t)
	rows, err := analysis.RepairTimeByCause(d)
	if err != nil {
		t.Fatal(err)
	}
	out := Table2(rows)
	for _, want := range []string{"Environment", "All", "Mean (min)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7Render(t *testing.T) {
	d := referenceDataset(t)
	study, err := analysis.RepairTimeFits(d)
	if err != nil {
		t.Fatal(err)
	}
	out := Figure7a(study)
	if !strings.Contains(out, "lognormal") || !strings.Contains(out, "best") {
		t.Fatalf("figure 7a missing fits:\n%s", out)
	}
	repairs, err := analysis.RepairTimePerSystem(d, lanl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	out = Figure7bc(repairs)
	if strings.Count(out, "\n") != 25 {
		t.Fatalf("unexpected figure 7bc size:\n%s", out)
	}
}

func TestCDFSeries(t *testing.T) {
	d := referenceDataset(t)
	xs := d.BySystem(20).PositiveInterarrivals()
	e, err := stats.NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := dist.FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	out := CDFSeries(e, cmp.Results, 10)
	if !strings.Contains(out, "empirical") || !strings.Contains(out, "weibull") {
		t.Fatalf("CDF series missing columns:\n%s", out)
	}
	// Zero n falls back to a default.
	out = CDFSeries(e, cmp.Results, 0)
	if len(out) == 0 {
		t.Fatal("empty CDF series")
	}
}

func TestFitComparisonWithFailure(t *testing.T) {
	// Include data that breaks the pareto fit to exercise the failure row.
	xs := []float64{1, 1, 1, 2, 3, 4, 5, 6, 7, 8}
	cmp, err := dist.FitAll(xs, dist.FamilyWeibull, dist.FamilyPareto, dist.FamilyExponential)
	if err != nil {
		t.Fatal(err)
	}
	out := FitComparison(cmp)
	if !strings.Contains(out, "weibull") {
		t.Fatalf("comparison missing weibull:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	out := Table3()
	if !strings.Contains(out, "Table 3") {
		t.Fatal("missing title")
	}
	// All 13 studies of the paper's survey.
	if got := len(RelatedWork()); got != 13 {
		t.Fatalf("studies = %d, want 13", got)
	}
	for _, want := range []string{"Tandem systems", "RPC polling", "TBF, TTR", "[16]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 3 missing %q", want)
		}
	}
}
