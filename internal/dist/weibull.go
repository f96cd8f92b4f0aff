package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/randx"
)

// Weibull is the Weibull distribution with shape k and scale λ. A shape
// below 1 gives a decreasing hazard rate — the paper's headline finding for
// time between failures is a Weibull fit with shape 0.7–0.8.
type Weibull struct {
	shape, scale float64
}

var (
	_ Continuous    = Weibull{}
	_ Hazarder      = Weibull{}
	_ Parameterized = Weibull{}
)

// NewWeibull constructs a Weibull distribution with shape, scale > 0.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if !(shape > 0) || !(scale > 0) || math.IsInf(shape, 0) || math.IsInf(scale, 0) {
		return Weibull{}, fmt.Errorf("weibull shape=%g scale=%g: %w", shape, scale, ErrBadParam)
	}
	return Weibull{shape: shape, scale: scale}, nil
}

// Shape returns k.
func (w Weibull) Shape() float64 { return w.shape }

// Scale returns λ.
func (w Weibull) Scale() float64 { return w.scale }

// ParamNames implements Parameterized.
func (w Weibull) ParamNames() []string { return []string{"shape", "scale"} }

// ParamValues implements Parameterized.
func (w Weibull) ParamValues() []float64 { return []float64{w.shape, w.scale} }

// Name implements Continuous.
func (w Weibull) Name() string { return "weibull" }

// NumParams implements Continuous.
func (w Weibull) NumParams() int { return 2 }

// Params implements Continuous.
func (w Weibull) Params() string {
	return fmt.Sprintf("shape=%.6g scale=%.6g", w.shape, w.scale)
}

// PDF implements Continuous.
func (w Weibull) PDF(x float64) float64 {
	return math.Exp(w.LogPDF(x))
}

// LogPDF implements Continuous.
func (w Weibull) LogPDF(x float64) float64 {
	if x < 0 || (x == 0 && w.shape < 1) {
		return math.Inf(-1)
	}
	if x == 0 {
		if w.shape == 1 {
			return -math.Log(w.scale)
		}
		return math.Inf(-1)
	}
	z := x / w.scale
	return math.Log(w.shape/w.scale) + (w.shape-1)*math.Log(z) - math.Pow(z, w.shape)
}

// CDF implements Continuous.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.scale, w.shape))
}

// Quantile implements Continuous.
func (w Weibull) Quantile(p float64) (float64, error) {
	if err := quantileDomain(p); err != nil {
		return math.NaN(), err
	}
	if p == 1 {
		return math.Inf(1), nil
	}
	return w.scale * math.Pow(-math.Log1p(-p), 1/w.shape), nil
}

// Mean implements Continuous.
func (w Weibull) Mean() float64 {
	return w.scale * math.Gamma(1+1/w.shape)
}

// Var implements Continuous.
func (w Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/w.shape)
	g2 := math.Gamma(1 + 2/w.shape)
	return w.scale * w.scale * (g2 - g1*g1)
}

// Hazard implements Hazarder: h(t) = (k/λ)(t/λ)^(k-1). Decreasing for
// shape < 1, constant at 1, increasing above 1.
func (w Weibull) Hazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		switch {
		case w.shape < 1:
			return math.Inf(1)
		case w.shape == 1:
			return 1 / w.scale
		default:
			return 0
		}
	}
	return (w.shape / w.scale) * math.Pow(t/w.scale, w.shape-1)
}

// HazardDecreasing reports whether the fitted hazard rate is decreasing
// (shape < 1), the property the paper uses to interpret TBF fits.
func (w Weibull) HazardDecreasing() bool { return w.shape < 1 }

// Rand implements Continuous.
func (w Weibull) Rand(src *randx.Source) float64 {
	return src.Weibull(w.shape, w.scale)
}

// FitWeibull computes the maximum-likelihood Weibull fit for strictly
// positive data. The profile likelihood reduces the problem to a 1-D root
// find in the shape parameter, solved with Brent's method.
func FitWeibull(xs []float64) (Weibull, error) {
	return newWeibullSolver().fit(&NewSample(xs).t)
}
