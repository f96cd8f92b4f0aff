package analysis

import (
	"fmt"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/stats"
)

// RepairStats is one column of Table 2: the repair-time statistics of one
// root-cause category (minutes).
type RepairStats struct {
	Cause failures.RootCause
	// N is the number of repairs in the category.
	N int
	// Mean, Median, StdDev are in minutes.
	Mean, Median, StdDev float64
	// C2 is the squared coefficient of variation, the paper's variability
	// measure (Table 2 bottom row). NaN when the category's mean repair
	// time is zero (C² undefined); the report layer renders that as
	// "undef".
	C2 float64
}

// RepairTimeByCause computes Table 2: repair-time statistics per root
// cause, plus the aggregate across all causes as a final entry with cause
// zero value replaced by the "all" marker (Cause == 0 is never valid, so
// callers can detect it; the report layer labels it "All").
func RepairTimeByCause(d *failures.Dataset) ([]RepairStats, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("repair time by cause: %w", failures.ErrNoRecords)
	}
	out := make([]RepairStats, 0, len(failures.Causes())+1)
	for _, c := range failures.Causes() {
		sub := d.ByCause(c)
		rs, err := repairStats(sub.RepairTimes())
		if err != nil {
			return nil, fmt.Errorf("repair stats for %v: %w", c, err)
		}
		rs.Cause = c
		out = append(out, rs)
	}
	all, err := repairStats(d.RepairTimes())
	if err != nil {
		return nil, fmt.Errorf("repair stats for all causes: %w", err)
	}
	out = append(out, all) // Cause left zero: the aggregate row.
	return out, nil
}

func repairStats(minutes []float64) (RepairStats, error) {
	s, err := stats.Summarize(minutes)
	if err != nil {
		return RepairStats{}, err
	}
	return RepairStats{
		N:      s.N,
		Mean:   s.Mean,
		Median: s.Median,
		StdDev: s.StdDev,
		C2:     s.C2,
	}, nil
}

// RepairFitStudy is Figure 7(a): the four standard distributions fitted to
// all repair times.
type RepairFitStudy struct {
	// Minutes are the repair times used for fitting.
	Minutes []float64
	Summary stats.Summary
	// Fits ranks the four standard families by NLL.
	Fits *dist.Comparison
}

// RepairTimeFits computes Figure 7(a) on all repair times in the dataset.
func RepairTimeFits(d *failures.Dataset) (*RepairFitStudy, error) {
	minutes := d.RepairTimes()
	if len(minutes) < 10 {
		return nil, fmt.Errorf("repair time fits: %d repairs, need >= 10: %w",
			len(minutes), dist.ErrInsufficientData)
	}
	summary, err := stats.Summarize(minutes)
	if err != nil {
		return nil, fmt.Errorf("repair time fits: %w", err)
	}
	fits, err := dist.FitAll(minutes)
	if err != nil {
		return nil, fmt.Errorf("repair time fits: %w", err)
	}
	return &RepairFitStudy{Minutes: minutes, Summary: summary, Fits: fits}, nil
}

// LogNormalBest reports whether the lognormal has the lowest NLL — the
// paper's Section 6 conclusion.
func (s *RepairFitStudy) LogNormalBest() (bool, error) {
	best, err := s.Fits.Best()
	if err != nil {
		return false, err
	}
	return best.Family == dist.FamilyLogNormal, nil
}

// SystemRepair is one bar of Figure 7(b)/(c): a system's mean and median
// repair time.
type SystemRepair struct {
	System int
	HW     failures.HWType
	N      int
	// MeanMinutes and MedianMinutes are the Figure 7(b) and 7(c) bars.
	MeanMinutes, MedianMinutes float64
}

// RepairTimePerSystem computes Figure 7(b, c) for every catalog system
// present in the dataset.
func RepairTimePerSystem(d *failures.Dataset, catalog []lanl.System) ([]SystemRepair, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("repair time per system: %w", failures.ErrNoRecords)
	}
	out := make([]SystemRepair, 0, len(catalog))
	for _, sys := range catalog {
		minutes := d.BySystem(sys.ID).RepairTimes()
		sr := SystemRepair{System: sys.ID, HW: sys.HW, N: len(minutes)}
		if len(minutes) > 0 {
			s, err := stats.Summarize(minutes)
			if err != nil {
				return nil, fmt.Errorf("repair time for system %d: %w", sys.ID, err)
			}
			sr.MeanMinutes = s.Mean
			sr.MedianMinutes = s.Median
		}
		out = append(out, sr)
	}
	return out, nil
}

// HWTypeRepairConsistency quantifies the paper's claim that repair times
// depend on hardware type rather than system size: for each hardware type
// with at least two systems it returns max/min of the median repair times
// within the type.
func HWTypeRepairConsistency(repairs []SystemRepair) map[failures.HWType]float64 {
	byHW := make(map[failures.HWType][]float64)
	for _, r := range repairs {
		if r.N > 0 && r.MedianMinutes > 0 {
			byHW[r.HW] = append(byHW[r.HW], r.MedianMinutes)
		}
	}
	out := make(map[failures.HWType]float64)
	for hw, medians := range byHW {
		if len(medians) < 2 {
			continue
		}
		min, max := medians[0], medians[0]
		for _, m := range medians {
			if m < min {
				min = m
			}
			if m > max {
				max = m
			}
		}
		out[hw] = max / min
	}
	return out
}
