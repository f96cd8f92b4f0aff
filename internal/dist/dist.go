// Package dist implements the probability distributions used in the paper's
// reliability analysis — exponential, Weibull, gamma, lognormal, normal,
// Poisson and Pareto — together with maximum-likelihood fitters and
// model-selection helpers based on the negative log-likelihood, the paper's
// goodness-of-fit criterion (Section 3).
package dist

import (
	"errors"
	"fmt"
	"math"

	"hpcfail/internal/randx"
)

// ErrBadParam is returned by constructors handed invalid parameters.
var ErrBadParam = errors.New("dist: invalid parameter")

// ErrInsufficientData is returned by fitters that need more observations.
var ErrInsufficientData = errors.New("dist: insufficient data")

// ErrUnsupported is returned by fitters handed data outside the support of
// the distribution (e.g. non-positive values for a lognormal fit).
var ErrUnsupported = errors.New("dist: data outside distribution support")

// Continuous is a continuous probability distribution over (a subset of)
// the real line.
type Continuous interface {
	// Name identifies the distribution family (e.g. "weibull").
	Name() string
	// PDF is the probability density at x.
	PDF(x float64) float64
	// LogPDF is the log-density at x; -Inf outside the support.
	LogPDF(x float64) float64
	// CDF is the cumulative probability P(X <= x).
	CDF(x float64) float64
	// Quantile inverts the CDF for p in [0, 1].
	Quantile(p float64) (float64, error)
	// Mean is the distribution mean.
	Mean() float64
	// Var is the distribution variance.
	Var() float64
	// Rand draws a variate using the given source.
	Rand(src *randx.Source) float64
	// NumParams reports the number of free parameters (for information
	// criteria).
	NumParams() int
	// Params returns a human-readable parameter description.
	Params() string
}

// Parameterized is implemented by distributions that expose their fitted
// parameters as an ordered numeric vector. It is what lets the generic
// bootstrap (FitCISample) attach a confidence interval to every parameter
// of any family without knowing the family's accessors.
type Parameterized interface {
	// ParamNames returns the parameter names in a fixed order (e.g.
	// ["shape", "scale"] for a Weibull).
	ParamNames() []string
	// ParamValues returns the parameter values in the same order.
	ParamValues() []float64
}

// Hazarder is implemented by lifetime distributions that expose their hazard
// rate h(t) = f(t) / (1 - F(t)). The paper uses the hazard rate's direction
// (increasing vs decreasing) to interpret Weibull fits of time between
// failures (Section 5.3).
type Hazarder interface {
	Hazard(t float64) float64
}

// NegLogLikelihood computes -Σ log f(x_i) for a fitted continuous
// distribution, the paper's model comparison score (lower is better). The
// four standard families reach nllOf as their concrete types; every family
// sums the same values in the same order.
func NegLogLikelihood(d Continuous, xs []float64) (float64, error) {
	switch t := d.(type) {
	case Exponential:
		return nllOf(t, xs)
	case Weibull:
		return nllOf(t, xs)
	case Gamma:
		return nllOf(t, xs)
	case LogNormal:
		return nllOf(t, xs)
	default:
		return nllOf(d, xs)
	}
}

// nllOf is the NLL loop.
func nllOf[D Continuous](d D, xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrInsufficientData
	}
	total := 0.0
	for _, x := range xs {
		lp := d.LogPDF(x)
		if math.IsInf(lp, -1) {
			// One impossible observation sinks the model.
			return math.Inf(1), nil
		}
		total -= lp
	}
	return total, nil
}

// checkPositive validates that all observations are strictly positive,
// returning a descriptive error otherwise. Fitters for positive-support
// distributions share it.
func checkPositive(name string, xs []float64) error {
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("fit %s: observation %d is %g: %w", name, i, x, ErrUnsupported)
		}
	}
	return nil
}

func quantileDomain(p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("dist: quantile probability %g outside [0, 1]: %w", p, ErrBadParam)
	}
	return nil
}
