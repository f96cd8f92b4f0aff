package analysis

import (
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

func TestAvailabilityPerSystem(t *testing.T) {
	d := referenceDataset(t)
	avail, err := AvailabilityPerSystem(d, lanl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(avail) != 22 {
		t.Fatalf("got %d systems", len(avail))
	}
	bySystem := make(map[int]SystemAvailability, len(avail))
	for _, a := range avail {
		if a.Availability < 0.8 || a.Availability > 1 {
			t.Errorf("system %d availability = %g", a.System, a.Availability)
		}
		bySystem[a.System] = a
	}
	// Type G systems repair slowly (Figure 7b): their availability should
	// trail the large type E systems.
	if bySystem[20].Availability >= bySystem[7].Availability {
		t.Errorf("system 20 (%.4f) should be less available than system 7 (%.4f)",
			bySystem[20].Availability, bySystem[7].Availability)
	}
	// Downtime accounting consistent: down minutes = rate * MTTR.
	a := bySystem[7]
	want := a.FailuresPerNodeYear * a.MTTRMinutes
	if a.ExpectedDownMinutesPerYear != want {
		t.Errorf("downtime %g != rate*mttr %g", a.ExpectedDownMinutesPerYear, want)
	}
}

func TestAvailabilityErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AvailabilityPerSystem(empty, lanl.Catalog()); err == nil {
		t.Error("empty: want error")
	}
}

func TestDetailBreakdown(t *testing.T) {
	d := referenceDataset(t)
	// Type F: memory must top the detailed causes (Section 4).
	top := topDetail(t, d.ByHW("F"))
	if top.Detail != "memory" {
		t.Errorf("type F top detail = %q, want memory", top.Detail)
	}
	if top.Share < 0.2 {
		t.Errorf("type F memory share = %.3f, want > 0.25", top.Share)
	}
	// Type E: CPU tops the list (the design flaw).
	top = topDetail(t, d.ByHW("E"))
	if top.Detail != "cpu" {
		t.Errorf("type E top detail = %q, want cpu", top.Detail)
	}
	// topK limits output and ordering is by count.
	rows, err := DetailBreakdown(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("topK rows = %d", len(rows))
	}
	if rows[0].Count < rows[1].Count || rows[1].Count < rows[2].Count {
		t.Fatal("rows not sorted by count")
	}
	// Shares over all details sum to 1.
	all, err := DetailBreakdown(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range all {
		sum += r.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %g", sum)
	}
}

// topDetail returns the most frequent specified low-level cause of d.
func topDetail(t *testing.T, d *failures.Dataset) DetailCount {
	t.Helper()
	all, err := DetailBreakdown(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range all {
		if dc.Detail != "" {
			return dc
		}
	}
	t.Fatal("no detailed causes recorded")
	return DetailCount{}
}

// detailShare returns the share of all failures in d whose low-level
// cause is detail.
func detailShare(t *testing.T, d *failures.Dataset, detail string) float64 {
	t.Helper()
	all, err := DetailBreakdown(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range all {
		if dc.Detail == detail {
			return dc.Share
		}
	}
	return 0
}

func TestDetailBreakdownErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DetailBreakdown(empty, 5); err == nil {
		t.Error("empty: want error")
	}
}
