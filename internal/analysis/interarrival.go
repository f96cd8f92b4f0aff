package analysis

import (
	"fmt"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/stats"
)

// InterarrivalView selects whose clock the time between failures is
// measured on (Section 5.3 takes both views).
type InterarrivalView int

// The two views of the failure process.
const (
	// ViewNode measures time between failures of a single node.
	ViewNode InterarrivalView = iota + 1
	// ViewSystem measures time between subsequent failures anywhere in the
	// system.
	ViewSystem
)

// String names the view.
func (v InterarrivalView) String() string {
	switch v {
	case ViewNode:
		return "per-node"
	case ViewSystem:
		return "system-wide"
	default:
		return fmt.Sprintf("InterarrivalView(%d)", int(v))
	}
}

// InterarrivalStudy is one panel of Figure 6: the empirical distribution of
// times between failures over one window, fitted by the four standard
// distributions.
type InterarrivalStudy struct {
	View InterarrivalView
	// Window labels the analysis period (e.g. "1996-1999").
	Window string
	// Seconds are the positive interarrival times in seconds.
	Seconds []float64
	// ZeroFraction is the fraction of interarrivals that were exactly
	// zero, before they were dropped for fitting (Figure 6c's defining
	// feature: >30% early in system 20).
	ZeroFraction float64
	// Summary describes the positive interarrivals.
	Summary stats.Summary
	// Fits compares the four standard families, best first.
	Fits *dist.Comparison
	// WeibullShape is the fitted Weibull shape parameter; the paper's
	// headline is 0.7–0.8 with decreasing hazard.
	WeibullShape float64
	// HazardDecreasing reports whether the Weibull fit implies a
	// decreasing hazard rate.
	HazardDecreasing bool
}

// StudyInterarrivals fits the four standard distributions to the time
// between failures in d (already filtered to the node or system and window
// of interest), taking the given view purely as labeling.
func StudyInterarrivals(d *failures.Dataset, view InterarrivalView, window string) (*InterarrivalStudy, error) {
	xs := d.PositiveInterarrivals()
	if len(xs) < 10 {
		return nil, fmt.Errorf("interarrival study %s %s: %d positive interarrivals, need >= 10: %w",
			view, window, len(xs), dist.ErrInsufficientData)
	}
	summary, err := stats.Summarize(xs)
	if err != nil {
		return nil, fmt.Errorf("interarrival study: %w", err)
	}
	fits, err := dist.FitAll(xs)
	if err != nil {
		return nil, fmt.Errorf("interarrival study: %w", err)
	}
	study := &InterarrivalStudy{
		View:         view,
		Window:       window,
		Seconds:      xs,
		ZeroFraction: d.ZeroInterarrivalFraction(),
		Summary:      summary,
		Fits:         fits,
	}
	if wb, ok := fits.ByFamily(dist.FamilyWeibull); ok && wb.Err == nil {
		weibull, isWeibull := wb.Dist.(dist.Weibull)
		if !isWeibull {
			return nil, fmt.Errorf("interarrival study: weibull fit has unexpected type %T", wb.Dist)
		}
		study.WeibullShape = weibull.Shape()
		study.HazardDecreasing = weibull.HazardDecreasing()
	}
	return study, nil
}

// BestFamily returns the family with the lowest negative log-likelihood.
func (s *InterarrivalStudy) BestFamily() (dist.Family, error) {
	best, err := s.Fits.Best()
	if err != nil {
		return 0, err
	}
	return best.Family, nil
}

// ExponentialAdequate reports whether the exponential fit is within margin
// (e.g. 1.02 = 2%) of the best NLL — the paper's finding is that it never
// is, because the data's C² far exceeds 1.
func (s *InterarrivalStudy) ExponentialAdequate(margin float64) (bool, error) {
	best, err := s.Fits.Best()
	if err != nil {
		return false, err
	}
	exp, ok := s.Fits.ByFamily(dist.FamilyExponential)
	if !ok || exp.Err != nil {
		return false, fmt.Errorf("interarrival study: no exponential fit")
	}
	if best.Family == dist.FamilyExponential {
		return true, nil
	}
	return exp.NLL <= best.NLL*margin, nil
}

// Figure6Panels bundles the four panels of Figure 6 for a system: per-node
// and system-wide views, each split at a boundary date into early and late
// production.
type Figure6Panels struct {
	NodeEarly   *InterarrivalStudy
	NodeLate    *InterarrivalStudy
	SystemEarly *InterarrivalStudy
	SystemLate  *InterarrivalStudy
}

// Figure6 reproduces the paper's Figure 6 layout: system and node fixed
// (the paper uses system 20, node 22), windows split at the boundary
// (paper: end of 1999).
func Figure6(d *failures.Dataset, system, node int, boundary time.Time) (*Figure6Panels, error) {
	sys := d.BySystem(system)
	if sys.Len() == 0 {
		return nil, fmt.Errorf("figure 6: system %d: %w", system, failures.ErrNoRecords)
	}
	first, last, err := sys.TimeSpan()
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	earlyWindow := fmt.Sprintf("%d-%d", first.Year(), boundary.Year()-1)
	lateWindow := fmt.Sprintf("%d-%d", boundary.Year(), last.Year())
	end := last.Add(time.Second)

	nodeData := sys.ByNode(system, node)
	panels := &Figure6Panels{}
	panels.NodeEarly, err = StudyInterarrivals(nodeData.Between(first, boundary), ViewNode, earlyWindow)
	if err != nil {
		return nil, fmt.Errorf("figure 6 node early: %w", err)
	}
	panels.NodeLate, err = StudyInterarrivals(nodeData.Between(boundary, end), ViewNode, lateWindow)
	if err != nil {
		return nil, fmt.Errorf("figure 6 node late: %w", err)
	}
	panels.SystemEarly, err = StudyInterarrivals(sys.Between(first, boundary), ViewSystem, earlyWindow)
	if err != nil {
		return nil, fmt.Errorf("figure 6 system early: %w", err)
	}
	panels.SystemLate, err = StudyInterarrivals(sys.Between(boundary, end), ViewSystem, lateWindow)
	if err != nil {
		return nil, fmt.Errorf("figure 6 system late: %w", err)
	}
	return panels, nil
}
