package analysis

import (
	"sync"
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

var (
	refOnce sync.Once
	refData *failures.Dataset
	refErr  error
)

// referenceDataset generates the seed-1 synthetic trace shared by all
// analysis tests.
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

var paperHWTypes = []failures.HWType{"D", "E", "F", "G", "H"}

func TestRootCauseBreakdown(t *testing.T) {
	d := referenceDataset(t)
	bds, err := RootCauseBreakdown(d, paperHWTypes)
	if err != nil {
		t.Fatal(err)
	}
	if len(bds) != len(paperHWTypes)+1 {
		t.Fatalf("got %d breakdowns", len(bds))
	}
	for _, bd := range bds {
		// Shares sum to 1.
		total := 0.0
		for _, c := range failures.Causes() {
			s := bd.Share[c]
			if s < 0 || s > 1 {
				t.Fatalf("%s: share %v out of range", bd.Label, s)
			}
			total += s
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s: shares sum to %g", bd.Label, total)
		}
		// Figure 1a shape: hardware is the single largest category,
		// 30%-60%+; software second-largest among the named causes.
		hw := bd.Share[failures.CauseHardware]
		if hw < 0.25 {
			t.Errorf("%s: hardware share %.2f below the paper's 30-60%% band", bd.Label, hw)
		}
		for _, c := range failures.Causes() {
			if c != failures.CauseHardware && bd.Share[c] > hw {
				t.Errorf("%s: %v (%.2f) exceeds hardware (%.2f)", bd.Label, c, bd.Share[c], hw)
			}
		}
	}
	// Aggregate bar is last.
	if bds[len(bds)-1].Label != "All systems" {
		t.Fatalf("last label = %q", bds[len(bds)-1].Label)
	}
	if got := bds[0].Percent(failures.CauseHardware); got <= 1 {
		t.Errorf("Percent should return percentage points, got %g", got)
	}
}

func TestDowntimeBreakdown(t *testing.T) {
	d := referenceDataset(t)
	bds, err := DowntimeBreakdown(d, paperHWTypes)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range bds {
		total := 0.0
		for _, c := range failures.Causes() {
			total += bd.Share[c]
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s: downtime shares sum to %g", bd.Label, total)
		}
		// Hardware and software dominate downtime (Figure 1b trends). Type
		// H is a single small system (~30 records), so its split is noise
		// dominated by individual outlier repairs; skip it.
		if bd.Label == "H" {
			continue
		}
		hwSW := bd.Share[failures.CauseHardware] + bd.Share[failures.CauseSoftware]
		if hwSW < 0.4 {
			t.Errorf("%s: hardware+software downtime share %.2f too low", bd.Label, hwSW)
		}
	}
	// Figure 1(b): for type E the unknown downtime share is tiny, and in
	// aggregate the unknown downtime share is smaller than its frequency
	// share because unknown repairs are short-median.
	for _, bd := range bds {
		if bd.Label == "E" && bd.Share[failures.CauseUnknown] > 0.10 {
			t.Errorf("type E unknown downtime share %.3f too high", bd.Share[failures.CauseUnknown])
		}
	}
}

// TestDowntimeBreakdownPastDurationRange builds records whose per-cause
// downtime totals far more than the ~292 years a time.Duration holds: six
// century-long hardware repairs and two software ones. Summed as
// durations the hardware total wraps to about 15 years, a wrong positive
// value that passes without an error; summed as float minutes the shares
// are exactly 3/4 and 1/4.
func TestDowntimeBreakdownPastDurationRange(t *testing.T) {
	start := time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(100, 0, 0)
	century := end.Sub(start).Minutes()
	var records []failures.Record
	for node, cause := range []failures.RootCause{
		failures.CauseHardware, failures.CauseHardware, failures.CauseHardware,
		failures.CauseHardware, failures.CauseHardware, failures.CauseHardware,
		failures.CauseSoftware, failures.CauseSoftware,
	} {
		records = append(records, failures.Record{
			System: 1, Node: node, HW: "E", Workload: failures.WorkloadCompute,
			Cause: cause, Start: start, End: end,
		})
	}
	d, err := failures.NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	bds, err := DowntimeBreakdown(d, []failures.HWType{"E"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range bds {
		if bd.Total != 8*century {
			t.Errorf("%s: total %v minutes, want %v", bd.Label, bd.Total, 8*century)
		}
		for _, c := range failures.Causes() {
			want := 0.0
			switch c {
			case failures.CauseHardware:
				want = 0.75
			case failures.CauseSoftware:
				want = 0.25
			}
			if bd.Share[c] != want {
				t.Errorf("%s: %v share %v, want %v", bd.Label, c, bd.Share[c], want)
			}
		}
	}
}

func TestBreakdownErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RootCauseBreakdown(empty, paperHWTypes); err == nil {
		t.Error("empty dataset: want error")
	}
	if _, err := DowntimeBreakdown(empty, paperHWTypes); err == nil {
		t.Error("empty dataset: want error")
	}
	// Unknown hardware type yields no records -> error mentioning the type.
	d := referenceDataset(t)
	if _, err := RootCauseBreakdown(d, []failures.HWType{"Z"}); err == nil {
		t.Error("unknown hardware type: want error")
	}
}

func TestDetailShareMemory(t *testing.T) {
	d := referenceDataset(t)
	// Section 4: memory is a significant share everywhere; F and H above
	// 25%.
	for _, hw := range []failures.HWType{"F", "H"} {
		if share := detailShare(t, d.ByHW(hw), "memory"); share < 0.2 {
			t.Errorf("type %s memory share = %.3f", hw, share)
		}
	}
	if share := detailShare(t, d.ByHW("E"), "cpu"); share < 0.4 {
		t.Errorf("type E cpu share = %.3f, want ~0.5", share)
	}
}

func TestFailureRates(t *testing.T) {
	d := referenceDataset(t)
	catalog := lanl.Catalog()
	rates, err := FailureRates(d, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 22 {
		t.Fatalf("got %d rates", len(rates))
	}
	// Figure 2(a): the raw failure rate varies by well over an order of
	// magnitude across systems.
	raw, err := SpreadPerYear(rates)
	if err != nil {
		t.Fatal(err)
	}
	if raw.MaxOverMin < 10 {
		t.Errorf("raw rate spread = %.1fx, paper has ~68x (17 to 1159)", raw.MaxOverMin)
	}
	// Figure 2(b): normalizing by processors shrinks the spread
	// dramatically.
	norm, err := SpreadPerYearPerProc(rates)
	if err != nil {
		t.Fatal(err)
	}
	if norm.MaxOverMin >= raw.MaxOverMin/2 {
		t.Errorf("normalized spread %.1fx should be far below raw %.1fx", norm.MaxOverMin, raw.MaxOverMin)
	}
	// Type E systems (5-12) have near-identical normalized rates.
	var eRates []float64
	for _, r := range rates {
		if r.HW == "E" {
			eRates = append(eRates, r.PerYearPerProc)
		}
	}
	min, max := eRates[0], eRates[0]
	for _, v := range eRates {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min > 3 {
		t.Errorf("type E normalized rates vary %.1fx", max/min)
	}
}

func TestSpreadErrors(t *testing.T) {
	if _, err := SpreadPerYear(nil); err == nil {
		t.Error("empty rates: want error")
	}
	if _, err := SpreadPerYearPerProc([]SystemRate{{System: 1}}); err == nil {
		t.Error("all-zero rates: want error")
	}
}

func TestPerNodeCounts(t *testing.T) {
	d := referenceDataset(t)
	sys20, err := lanl.SystemByID(20)
	if err != nil {
		t.Fatal(err)
	}
	study, err := PerNodeCounts(d, sys20)
	if err != nil {
		t.Fatal(err)
	}
	// Graphics nodes excluded from compute counts: 49 - 3 graphics - 0
	// frontend = 46 compute nodes.
	if len(study.ComputeCounts) != 46 {
		t.Fatalf("compute nodes = %d, want 46", len(study.ComputeCounts))
	}
	// Figure 3(a): graphics nodes hold the top counts.
	maxCompute := 0
	for _, c := range study.ComputeCounts {
		if c > maxCompute {
			maxCompute = c
		}
	}
	for _, g := range sys20.GraphicsNodes {
		if study.CountsByNode[g] < maxCompute {
			t.Errorf("graphics node %d count %d below max compute %d",
				g, study.CountsByNode[g], maxCompute)
		}
	}
	// Figure 3(b): Poisson under-fits; normal and lognormal do better.
	if study.PoissonErr != nil || study.NormalErr != nil || study.LogNormErr != nil {
		t.Fatalf("fit errors: %v %v %v", study.PoissonErr, study.NormalErr, study.LogNormErr)
	}
	if !study.PoissonRejected {
		t.Errorf("Poisson NLL %.1f should exceed normal NLL %.1f", study.PoissonNLL, study.NormalNLL)
	}
	if study.Overdispersion() < 2 {
		t.Errorf("overdispersion = %.2f, want clearly above 1", study.Overdispersion())
	}
}

func TestPerNodeCountsErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	sys20, err := lanl.SystemByID(20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PerNodeCounts(empty, sys20); err == nil {
		t.Error("empty dataset: want error")
	}
}

func TestLifecycleCurveShapes(t *testing.T) {
	d := referenceDataset(t)
	// System 5 (type E): early-drop (Figure 4a).
	sys5, err := lanl.SystemByID(5)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := LifecycleCurve(d, 5, sys5.Start, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := ClassifyLifecycle(c5); got != ShapeEarlyDrop {
		t.Errorf("system 5 shape = %v, want early-drop", got)
	}
	// System 19 (type G): ramp-then-drop (Figure 4b).
	sys19, err := lanl.SystemByID(19)
	if err != nil {
		t.Fatal(err)
	}
	c19, err := LifecycleCurve(d, 19, sys19.Start, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := ClassifyLifecycle(c19); got != ShapeRampThenDrop {
		t.Errorf("system 19 shape = %v, want ramp-then-drop", got)
	}
	// System 21 was commissioned late and follows the early-drop pattern
	// (Section 5.2's supporting observation).
	sys21, err := lanl.SystemByID(21)
	if err != nil {
		t.Fatal(err)
	}
	c21, err := LifecycleCurve(d, 21, sys21.Start, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := ClassifyLifecycle(c21); got != ShapeEarlyDrop {
		t.Errorf("system 21 shape = %v, want early-drop", got)
	}
	// Per-cause breakdown sums to the total.
	for _, p := range c5 {
		sum := 0
		for _, n := range p.ByCause {
			sum += n
		}
		if sum != p.Total {
			t.Fatalf("month %d: cause sum %d != total %d", p.Month, sum, p.Total)
		}
	}
}

func TestLifecycleCurveErrors(t *testing.T) {
	d := referenceDataset(t)
	if _, err := LifecycleCurve(d, 5, lanl.CollectionStart, 0); err == nil {
		t.Error("zero months: want error")
	}
	if _, err := LifecycleCurve(d, 99, lanl.CollectionStart, 10); err == nil {
		t.Error("unknown system: want error")
	}
}

func TestClassifyLifecycleDegenerate(t *testing.T) {
	if got := ClassifyLifecycle(nil); got != ShapeFlat {
		t.Errorf("nil curve = %v", got)
	}
	flat := make([]LifecyclePoint, 12)
	if got := ClassifyLifecycle(flat); got != ShapeFlat {
		t.Errorf("all-zero curve = %v", got)
	}
	if ShapeEarlyDrop.String() != "early-drop" || ShapeRampThenDrop.String() != "ramp-then-drop" ||
		ShapeFlat.String() != "flat" || LifecycleShape(9).String() == "" {
		t.Error("LifecycleShape.String broken")
	}
}

func TestTimeOfDayProfile(t *testing.T) {
	d := referenceDataset(t)
	p, err := NewTimeOfDayProfile(d)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: daytime peak roughly 2x the night trough; weekdays nearly
	// 2x weekends.
	ratio := p.PeakTroughRatio()
	if ratio < 1.5 || ratio > 3 {
		t.Errorf("peak/trough = %.2f, want ~2", ratio)
	}
	wr := p.WeekdayWeekendRatio()
	if wr < 1.4 || wr > 2.6 {
		t.Errorf("weekday/weekend = %.2f, want ~1.8", wr)
	}
	// The peak hour falls in the working afternoon, not at night.
	peakHour, peak := 0, 0
	for h, c := range p.ByHour {
		if c > peak {
			peakHour, peak = h, c
		}
	}
	if peakHour < 9 || peakHour > 18 {
		t.Errorf("peak hour = %d, want working hours", peakHour)
	}
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTimeOfDayProfile(empty); err == nil {
		t.Error("empty dataset: want error")
	}
}

func TestFigure6(t *testing.T) {
	d := referenceDataset(t)
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	panels, err := Figure6(d, 20, 22, boundary)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6(b): late per-node TBF is Weibull/gamma with decreasing
	// hazard and shape ~0.7.
	nl := panels.NodeLate
	bf, err := nl.BestFamily()
	if err != nil {
		t.Fatal(err)
	}
	if bf == dist.FamilyExponential {
		t.Error("node-late best family should not be exponential")
	}
	if nl.WeibullShape < 0.5 || nl.WeibullShape > 1.0 {
		t.Errorf("node-late Weibull shape = %.3f, paper: 0.7", nl.WeibullShape)
	}
	if !nl.HazardDecreasing {
		t.Error("node-late hazard should be decreasing")
	}
	ok, err := nl.ExponentialAdequate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("exponential should not match the best NLL on node-late data")
	}
	// Figure 6(a): early per-node TBF has higher C² than late.
	if panels.NodeEarly.Summary.C2 <= panels.NodeLate.Summary.C2 {
		t.Errorf("early C² (%.2f) should exceed late C² (%.2f)",
			panels.NodeEarly.Summary.C2, panels.NodeLate.Summary.C2)
	}
	// Figure 6(c): early system-wide view has >30% zero interarrivals.
	if f := panels.SystemEarly.ZeroFraction; f < 0.25 {
		t.Errorf("system-early zero fraction = %.3f, want > 0.30", f)
	}
	// Figure 6(d): system-wide late fit also has decreasing hazard with
	// shape ~0.78.
	sl := panels.SystemLate
	if !sl.HazardDecreasing {
		t.Error("system-late hazard should be decreasing")
	}
	if sl.WeibullShape < 0.5 || sl.WeibullShape > 1.05 {
		t.Errorf("system-late Weibull shape = %.3f, paper: 0.78", sl.WeibullShape)
	}
	// Labels.
	if panels.NodeEarly.View != ViewNode || panels.SystemLate.View != ViewSystem {
		t.Error("views mislabeled")
	}
	if ViewNode.String() != "per-node" || ViewSystem.String() != "system-wide" {
		t.Error("view names broken")
	}
}

func TestFigure6Errors(t *testing.T) {
	d := referenceDataset(t)
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := Figure6(d, 99, 0, boundary); err == nil {
		t.Error("unknown system: want error")
	}
	// A node with almost no failures cannot support the study.
	if _, err := Figure6(d, 20, 0, boundary); err == nil {
		t.Error("node 0 has too little early data: want error")
	}
}

func TestRepairTimeByCause(t *testing.T) {
	d := referenceDataset(t)
	rows, err := RepairTimeByCause(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // 6 causes + aggregate
		t.Fatalf("got %d rows", len(rows))
	}
	byCause := make(map[failures.RootCause]RepairStats)
	for _, r := range rows[:6] {
		byCause[r.Cause] = r
	}
	// Table 2 shape: environment repairs have the highest median and the
	// lowest variability; software/hardware/unknown have mean >> median
	// and very large C².
	env := byCause[failures.CauseEnvironment]
	for _, c := range failures.Causes() {
		if c == failures.CauseEnvironment {
			continue
		}
		if byCause[c].Median >= env.Median {
			t.Errorf("%v median %.0f should be below environment %.0f", c, byCause[c].Median, env.Median)
		}
		if byCause[c].C2 < env.C2 {
			t.Errorf("%v C² %.1f should exceed environment %.1f", c, byCause[c].C2, env.C2)
		}
	}
	for _, c := range []failures.RootCause{failures.CauseSoftware, failures.CauseUnknown} {
		if byCause[c].Mean < 4*byCause[c].Median {
			t.Errorf("%v mean %.0f should dwarf median %.0f", c, byCause[c].Mean, byCause[c].Median)
		}
	}
	// Aggregate row: mean dominated by hardware/software, so it falls
	// within the per-cause extremes.
	agg := rows[6]
	if agg.Cause != 0 {
		t.Fatalf("aggregate row cause = %v", agg.Cause)
	}
	if agg.N < byCause[failures.CauseHardware].N {
		t.Error("aggregate N must exceed any single cause's N")
	}
}

func TestRepairTimeFits(t *testing.T) {
	d := referenceDataset(t)
	study, err := RepairTimeFits(d)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7(a): lognormal is the best fit; exponential the worst.
	best, err := study.LogNormalBest()
	if err != nil {
		t.Fatal(err)
	}
	if !best {
		winner, _ := study.Fits.Best()
		t.Errorf("best repair fit = %v, paper: lognormal", winner.Family)
	}
	exp, ok := study.Fits.ByFamily(dist.FamilyExponential)
	if !ok || exp.Err != nil {
		t.Fatal("exponential fit missing")
	}
	lgn, _ := study.Fits.ByFamily(dist.FamilyLogNormal)
	if exp.NLL <= lgn.NLL {
		t.Error("exponential should fit repair times much worse than lognormal")
	}
}

func TestRepairTimePerSystem(t *testing.T) {
	d := referenceDataset(t)
	catalog := lanl.Catalog()
	repairs, err := RepairTimePerSystem(d, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 22 {
		t.Fatalf("got %d systems", len(repairs))
	}
	// Figure 7(b,c): same hardware type => similar medians; different
	// types differ strongly. Type E systems span 128-1024 nodes yet should
	// stay within ~2.5x of each other.
	cons := HWTypeRepairConsistency(repairs)
	if v, ok := cons["E"]; !ok || v > 2.5 {
		t.Errorf("type E median repair spread = %.2f, want small", v)
	}
	// Cross-type contrast: G systems repair much slower than E systems.
	var eMed, gMed float64
	var eN, gN int
	for _, r := range repairs {
		switch r.HW {
		case "E":
			eMed += r.MedianMinutes * float64(r.N)
			eN += r.N
		case "G":
			gMed += r.MedianMinutes * float64(r.N)
			gN += r.N
		}
	}
	if eN == 0 || gN == 0 {
		t.Fatal("missing E or G repairs")
	}
	if gMed/float64(gN) < 2*eMed/float64(eN) {
		t.Errorf("type G median repair (%.0f) should far exceed type E (%.0f)",
			gMed/float64(gN), eMed/float64(eN))
	}
}

func TestRepairErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RepairTimeByCause(empty); err == nil {
		t.Error("empty: want error")
	}
	if _, err := RepairTimeFits(empty); err == nil {
		t.Error("empty: want error")
	}
	if _, err := RepairTimePerSystem(empty, lanl.Catalog()); err == nil {
		t.Error("empty: want error")
	}
	if got := HWTypeRepairConsistency(nil); len(got) != 0 {
		t.Error("nil repairs should give empty map")
	}
}
