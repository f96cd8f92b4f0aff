package report

import (
	"fmt"
	"strings"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
)

// ParamCIs renders bootstrap confidence intervals as a one-line summary,
// e.g. "shape=0.752 [0.731, 0.774], scale=586.2 [549.1, 625.0]".
func ParamCIs(cis []dist.ParamCI) string {
	parts := make([]string, len(cis))
	for i, ci := range cis {
		parts[i] = fmt.Sprintf("%s=%.4g [%.4g, %.4g]", ci.Name, ci.Estimate, ci.Lo, ci.Hi)
	}
	return strings.Join(parts, ", ")
}

// FleetTable renders the engine's fleet analysis, one row per shard with the
// best-fitting interarrival and repair families, the Weibull shape interval
// for time between failures and the lognormal median interval (minutes) for
// time to repair.
func FleetTable(r *engine.FleetResult, level float64) string {
	t := NewTable("Shard", "Records", "TBF best", fmt.Sprintf("Weibull shape [%.0f%% CI]", level*100),
		"TTR best", fmt.Sprintf("LogN median min [%.0f%% CI]", level*100))
	for _, s := range r.Shards {
		if s.Err != nil {
			t.AddRow(s.Key.String(), FormatCount(s.Records), "error: "+s.Err.Error(), "-", "-", "-")
			continue
		}
		t.AddRow(s.Key.String(), FormatCount(s.Records),
			bestFamily(s.Interarrival), shapeCell(s.Interarrival),
			bestFamily(s.Repair), medianCell(s.Repair))
	}
	return t.String()
}

func bestFamily(s *engine.Study) string {
	if s == nil {
		return "(too few)"
	}
	best, err := s.Fits.Best()
	if err != nil {
		return "-"
	}
	return best.Family.String()
}

func shapeCell(s *engine.Study) string {
	ci, ok := s.WeibullShapeCI()
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3f [%.3f, %.3f]", ci.Estimate, ci.Lo, ci.Hi)
}

func medianCell(s *engine.Study) string {
	ci, ok := s.LogNormalMedianCI()
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f [%.0f, %.0f]", ci.Estimate, ci.Lo, ci.Hi)
}
