package analysis

import (
	"fmt"
	"sort"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/stats"
)

// SystemAvailability is the steady-state availability estimate of one
// system derived from its failure record: MTBF/(MTBF+MTTR) per node,
// aggregated over the system.
type SystemAvailability struct {
	System int
	HW     failures.HWType
	// FailuresPerNodeYear is the mean per-node failure rate.
	FailuresPerNodeYear float64
	// MTTRMinutes is the mean repair time.
	MTTRMinutes float64
	// Availability is the steady-state node availability estimate.
	Availability float64
	// ExpectedDownMinutesPerYear is the expected per-node downtime.
	ExpectedDownMinutesPerYear float64
}

// AvailabilityPerSystem estimates each catalog system's availability from
// the dataset — the operator-facing composite of Figures 2 and 7.
func AvailabilityPerSystem(d *failures.Dataset, catalog []lanl.System) ([]SystemAvailability, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("availability: %w", failures.ErrNoRecords)
	}
	const minutesPerYear = 365.25 * 24 * 60
	out := make([]SystemAvailability, 0, len(catalog))
	for _, sys := range catalog {
		sub := d.BySystem(sys.ID)
		sa := SystemAvailability{System: sys.ID, HW: sys.HW, Availability: 1}
		if sub.Len() > 0 {
			years := sys.ProductionYears()
			sa.FailuresPerNodeYear = float64(sub.Len()) / years / float64(sys.Nodes)
			repairs := sub.RepairTimes()
			if len(repairs) > 0 {
				sa.MTTRMinutes = stats.Mean(repairs)
			}
			downPerYear := sa.FailuresPerNodeYear * sa.MTTRMinutes
			sa.ExpectedDownMinutesPerYear = downPerYear
			sa.Availability = 1 - downPerYear/minutesPerYear
			if sa.Availability < 0 {
				sa.Availability = 0
			}
		}
		out = append(out, sa)
	}
	return out, nil
}

// DetailCount is one low-level root cause with its share of ALL failures
// in the group (Section 4's detailed breakdown).
type DetailCount struct {
	// Detail is the low-level cause (empty string = unspecified).
	Detail string
	// Count is the number of records.
	Count int
	// Share is Count over the group's total records.
	Share float64
}

// DetailBreakdown returns the low-level root causes of a dataset sorted by
// frequency, each with its share of all failures. topK <= 0 returns all.
func DetailBreakdown(d *failures.Dataset, topK int) ([]DetailCount, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("detail breakdown: %w", failures.ErrNoRecords)
	}
	counts := d.CountByDetail()
	out := make([]DetailCount, 0, len(counts))
	total := float64(d.Len())
	for detail, n := range counts {
		out = append(out, DetailCount{Detail: detail, Count: n, Share: float64(n) / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Detail < out[j].Detail
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
