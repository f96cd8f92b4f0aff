// Package analysis implements the paper's experiments as reusable
// functions: root-cause breakdowns (Figure 1), failure rates across systems
// and nodes (Figures 2 and 3), failure rates over time (Figures 4 and 5),
// time-between-failure studies (Figure 6) and repair-time studies (Table 2,
// Figure 7). Each function consumes a failures.Dataset and returns a typed
// result that internal/report can render.
package analysis

import (
	"fmt"

	"hpcfail/internal/failures"
)

// CauseBreakdown is the root-cause composition of one group of failures
// (one bar of Figure 1).
type CauseBreakdown struct {
	// Label identifies the group (hardware type, or "All systems").
	Label string
	// Total is the number of failures (Figure 1a) or the total downtime in
	// minutes (Figure 1b) in the group.
	Total float64
	// Share maps each root cause to its fraction of Total, in [0, 1].
	Share map[failures.RootCause]float64
}

// Percent returns the share of a cause as a percentage.
func (b CauseBreakdown) Percent(c failures.RootCause) float64 {
	return 100 * b.Share[c]
}

// RootCauseBreakdown computes Figure 1(a): the relative frequency of the
// six root-cause categories for each listed hardware type plus the
// aggregate over the whole dataset.
func RootCauseBreakdown(d *failures.Dataset, hwTypes []failures.HWType) ([]CauseBreakdown, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("root cause breakdown: %w", failures.ErrNoRecords)
	}
	out := make([]CauseBreakdown, 0, len(hwTypes)+1)
	for _, hw := range hwTypes {
		sub := d.ByHW(hw)
		bd, err := countBreakdown(string(hw), sub)
		if err != nil {
			return nil, fmt.Errorf("root cause breakdown for type %s: %w", hw, err)
		}
		out = append(out, bd)
	}
	all, err := countBreakdown("All systems", d)
	if err != nil {
		return nil, err
	}
	return append(out, all), nil
}

func countBreakdown(label string, d *failures.Dataset) (CauseBreakdown, error) {
	if d.Len() == 0 {
		return CauseBreakdown{}, failures.ErrNoRecords
	}
	counts := d.CountByCause()
	total := float64(d.Len())
	share := make(map[failures.RootCause]float64, len(counts))
	for _, c := range failures.Causes() {
		share[c] = float64(counts[c]) / total
	}
	return CauseBreakdown{Label: label, Total: total, Share: share}, nil
}

// DowntimeBreakdown computes Figure 1(b): the fraction of total downtime
// attributed to each root cause, per hardware type and in aggregate.
func DowntimeBreakdown(d *failures.Dataset, hwTypes []failures.HWType) ([]CauseBreakdown, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("downtime breakdown: %w", failures.ErrNoRecords)
	}
	out := make([]CauseBreakdown, 0, len(hwTypes)+1)
	for _, hw := range hwTypes {
		sub := d.ByHW(hw)
		bd, err := downtimeBreakdown(string(hw), sub)
		if err != nil {
			return nil, fmt.Errorf("downtime breakdown for type %s: %w", hw, err)
		}
		out = append(out, bd)
	}
	all, err := downtimeBreakdown("All systems", d)
	if err != nil {
		return nil, err
	}
	return append(out, all), nil
}

func downtimeBreakdown(label string, d *failures.Dataset) (CauseBreakdown, error) {
	if d.Len() == 0 {
		return CauseBreakdown{}, failures.ErrNoRecords
	}
	byCause := d.DowntimeByCause()
	var total float64
	for _, c := range failures.Causes() {
		total += byCause[c]
	}
	if total <= 0 {
		return CauseBreakdown{}, fmt.Errorf("downtime breakdown %q: zero total downtime", label)
	}
	share := make(map[failures.RootCause]float64, len(byCause))
	for _, c := range failures.Causes() {
		share[c] = byCause[c] / total
	}
	return CauseBreakdown{Label: label, Total: total, Share: share}, nil
}

// DetailShare returns the fraction of ALL failures in d whose low-level
// detail field equals the given detail (e.g. "memory" — Section 4 reports
// memory above 10% of all failures in every system).
func DetailShare(d *failures.Dataset, detail string) (float64, error) {
	if d.Len() == 0 {
		return 0, fmt.Errorf("detail share: %w", failures.ErrNoRecords)
	}
	return float64(d.CountByDetail()[detail]) / float64(d.Len()), nil
}
