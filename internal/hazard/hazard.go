// Package hazard estimates hazard rates from failure interarrival data.
// The paper interprets its Weibull fits through the hazard rate function
// (Section 5.3: "an increasing hazard rate function predicts that if the
// time since a failure is long then the next failure is coming soon; a
// decreasing hazard rate function predicts the reverse"). This package
// makes that interpretation testable without assuming a parametric family:
// a binned empirical hazard, a nonparametric direction test and the mean
// residual life.
package hazard

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/stats"
)

// ErrInsufficientData is returned when an estimator needs more samples.
var ErrInsufficientData = errors.New("hazard: insufficient data")

// Estimate is a binned empirical hazard-rate estimate.
type Estimate struct {
	// Edges are the bin boundaries (len = len(Rates)+1).
	Edges []float64
	// Rates[i] is the estimated hazard in [Edges[i], Edges[i+1]):
	// failures in the bin divided by time-at-risk accumulated in the bin.
	Rates []float64
	// Events[i] counts the failures in the bin.
	Events []int
}

// Empirical computes a binned hazard-rate estimate from complete lifetimes
// using equal-probability bins (each bin holds about the same number of
// events, so rate estimates have comparable precision).
func Empirical(lifetimes []float64, bins int) (*Estimate, error) {
	if bins < 2 {
		return nil, fmt.Errorf("hazard: need >= 2 bins, got %d", bins)
	}
	if len(lifetimes) < 2*bins {
		return nil, fmt.Errorf("hazard: %d lifetimes for %d bins: %w",
			len(lifetimes), bins, ErrInsufficientData)
	}
	sorted := make([]float64, len(lifetimes))
	copy(sorted, lifetimes)
	sort.Float64s(sorted)
	if sorted[0] <= 0 {
		return nil, fmt.Errorf("hazard: non-positive lifetime %g", sorted[0])
	}
	// Quantile-based edges: 0, q_{1/bins}, ..., q_{(bins-1)/bins}, max.
	edges := make([]float64, bins+1)
	for i := 1; i < bins; i++ {
		q, err := stats.Quantile(sorted, float64(i)/float64(bins))
		if err != nil {
			return nil, fmt.Errorf("hazard: %w", err)
		}
		edges[i] = q
	}
	edges[bins] = sorted[len(sorted)-1]
	// Guard against duplicate edges from ties.
	for i := 1; i <= bins; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
		}
	}
	est := &Estimate{
		Edges:  edges,
		Rates:  make([]float64, bins),
		Events: make([]int, bins),
	}
	// Each lifetime contributes exposure to every bin it survives through
	// and one event to the bin it dies in.
	exposure := make([]float64, bins)
	for _, t := range sorted {
		for b := 0; b < bins; b++ {
			lo, hi := est.Edges[b], est.Edges[b+1]
			if t <= lo {
				break
			}
			if t >= hi {
				exposure[b] += hi - lo
				continue
			}
			exposure[b] += t - lo
			est.Events[b]++
			break
		}
		// Deaths beyond the last edge (t == max) land in the final bin.
		if t >= est.Edges[bins] {
			est.Events[bins-1]++
		}
	}
	for b := 0; b < bins; b++ {
		if exposure[b] > 0 {
			est.Rates[b] = float64(est.Events[b]) / exposure[b]
		}
	}
	return est, nil
}

// Direction classifies the trend of a hazard estimate.
type Direction int

// Hazard directions.
const (
	// Decreasing means later bins have lower hazard (the paper's TBF
	// finding: Weibull shape < 1).
	Decreasing Direction = iota + 1
	// Increasing means later bins have higher hazard (wear-out).
	Increasing
	// Flat means no clear monotone trend (memoryless-compatible).
	Flat
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Decreasing:
		return "decreasing"
	case Increasing:
		return "increasing"
	case Flat:
		return "flat"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Trend classifies the direction of a hazard estimate by the weighted
// Kendall-style comparison of bin rates: it counts concordant vs
// discordant bin pairs and requires a 2:1 majority to call a direction.
func (e *Estimate) Trend() Direction {
	up, down := 0, 0
	for i := 0; i < len(e.Rates); i++ {
		for j := i + 1; j < len(e.Rates); j++ {
			switch {
			case e.Rates[j] > e.Rates[i]:
				up++
			case e.Rates[j] < e.Rates[i]:
				down++
			}
		}
	}
	switch {
	case down >= 2*up && down > 0:
		return Decreasing
	case up >= 2*down && up > 0:
		return Increasing
	default:
		return Flat
	}
}

// MeanResidualLife returns the expected remaining lifetime given survival
// to age t, estimated from the sample: E[X - t | X > t]. For a decreasing
// hazard this *grows* with t — the operational meaning of the paper's
// Weibull finding for maintenance planning.
func MeanResidualLife(lifetimes []float64, t float64) (float64, error) {
	if len(lifetimes) == 0 {
		return math.NaN(), ErrInsufficientData
	}
	var sum float64
	n := 0
	for _, x := range lifetimes {
		if x > t {
			sum += x - t
			n++
		}
	}
	if n == 0 {
		return math.NaN(), fmt.Errorf("hazard: no lifetimes beyond %g: %w", t, ErrInsufficientData)
	}
	return sum / float64(n), nil
}
