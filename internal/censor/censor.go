// Package censor provides survival analysis with right-censored data. In
// failure traces the last observation of every node is censored: the node
// was still alive when data collection ended (November 2005 for LANL).
// Ignoring those truncated intervals biases TBF estimates downward; this
// package supplies the censoring-aware maximum-likelihood Weibull fit and
// the conversion of a node's failure history into censored lifetimes.
package censor

import (
	"errors"
	"fmt"
	"math"

	"hpcfail/internal/dist"
	"hpcfail/internal/mathx"
)

// ErrInsufficientData is returned when an estimator needs more events.
var ErrInsufficientData = errors.New("censor: insufficient data")

// Observation is one (possibly censored) lifetime.
type Observation struct {
	// Time is the observed duration (> 0).
	Time float64
	// Censored is true when the unit was still alive at Time (the event
	// was not observed).
	Censored bool
}

// validate checks a sample, returning the number of uncensored events.
func validate(obs []Observation) (int, error) {
	events := 0
	for i, o := range obs {
		if !(o.Time > 0) || math.IsInf(o.Time, 0) || math.IsNaN(o.Time) {
			return 0, fmt.Errorf("censor: observation %d has time %g", i, o.Time)
		}
		if !o.Censored {
			events++
		}
	}
	return events, nil
}

// FitWeibull computes the censoring-aware MLE of the Weibull shape and
// scale. The profile-likelihood score for shape k is
//
//	Σ_all x^k ln x / Σ_all x^k − 1/k − (Σ_events ln x)/d = 0
//
// where the first sums run over all observations (censored included) and d
// is the number of uncensored events; scale follows as
// (Σ_all x^k / d)^(1/k).
func FitWeibull(obs []Observation) (dist.Weibull, error) {
	events, err := validate(obs)
	if err != nil {
		return dist.Weibull{}, err
	}
	if events < 2 {
		return dist.Weibull{}, fmt.Errorf("censor: %d events, need >= 2: %w", events, ErrInsufficientData)
	}
	var sumLogEvents float64
	maxX := 0.0
	distinct := false
	first := math.NaN()
	for _, o := range obs {
		if o.Time > maxX {
			maxX = o.Time
		}
		if !o.Censored {
			sumLogEvents += math.Log(o.Time)
			if math.IsNaN(first) {
				first = o.Time
			} else if o.Time != first {
				distinct = true
			}
		}
	}
	if !distinct {
		return dist.Weibull{}, fmt.Errorf("censor: all event times identical: %w", ErrInsufficientData)
	}
	d := float64(events)
	logMax := math.Log(maxX)
	score := func(k float64) float64 {
		var sw, swl float64
		for _, o := range obs {
			w := math.Exp(k * (math.Log(o.Time) - logMax))
			sw += w
			swl += w * math.Log(o.Time)
		}
		return swl/sw - 1/k - sumLogEvents/d
	}
	lo, hi, err := mathx.FindBracket(score, 1e-3, 5)
	if err != nil {
		return dist.Weibull{}, fmt.Errorf("censor: bracket weibull shape: %w", err)
	}
	if lo <= 0 {
		lo = 1e-6
	}
	k, err := mathx.Brent(score, lo, hi, 1e-11)
	if err != nil {
		return dist.Weibull{}, fmt.Errorf("censor: solve weibull shape: %w", err)
	}
	var sw float64
	for _, o := range obs {
		sw += math.Exp(k * (math.Log(o.Time) - logMax))
	}
	scale := maxX * math.Pow(sw/d, 1/k)
	return dist.NewWeibull(k, scale)
}

// NodeLifetimes converts a node's failure history into censored
// observations: the gaps between consecutive failures are events, and the
// interval from the last failure to the observation end is censored. start
// and end bound the observation window; failureTimes must be sorted
// offsets (in the same unit) within [start, end].
func NodeLifetimes(start, end float64, failureTimes []float64) ([]Observation, error) {
	if end <= start {
		return nil, fmt.Errorf("censor: empty window [%g, %g]", start, end)
	}
	prev := start
	var out []Observation
	for i, t := range failureTimes {
		if t < prev || t > end {
			return nil, fmt.Errorf("censor: failure time %d (%g) outside window or out of order", i, t)
		}
		if t > prev {
			out = append(out, Observation{Time: t - prev})
		}
		prev = t
	}
	if end > prev {
		out = append(out, Observation{Time: end - prev, Censored: true})
	}
	return out, nil
}
