package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/mathx"
	"hpcfail/internal/randx"
)

// Gamma is the gamma distribution with shape k and scale θ. Like the
// Weibull, a shape below 1 yields a decreasing hazard rate; the paper finds
// gamma and Weibull fits of TBF nearly indistinguishable.
type Gamma struct {
	shape, scale float64
}

var (
	_ Continuous = Gamma{}
	_ Hazarder   = Gamma{}
)

// NewGamma constructs a gamma distribution with shape, scale > 0.
func NewGamma(shape, scale float64) (Gamma, error) {
	if !(shape > 0) || !(scale > 0) || math.IsInf(shape, 0) || math.IsInf(scale, 0) {
		return Gamma{}, fmt.Errorf("gamma shape=%g scale=%g: %w", shape, scale, ErrBadParam)
	}
	return Gamma{shape: shape, scale: scale}, nil
}

// Shape returns k.
func (g Gamma) Shape() float64 { return g.shape }

// Scale returns θ.
func (g Gamma) Scale() float64 { return g.scale }

// ParamNames implements Parameterized.
func (g Gamma) ParamNames() []string { return []string{"shape", "scale"} }

// ParamValues implements Parameterized.
func (g Gamma) ParamValues() []float64 { return g.appendParams(nil) }

func (g Gamma) appendParams(out []float64) []float64 { return append(out, g.shape, g.scale) }

// Name implements Continuous.
func (g Gamma) Name() string { return "gamma" }

// NumParams implements Continuous.
func (g Gamma) NumParams() int { return 2 }

// Params implements Continuous.
func (g Gamma) Params() string {
	return fmt.Sprintf("shape=%.6g scale=%.6g", g.shape, g.scale)
}

// PDF implements Continuous.
func (g Gamma) PDF(x float64) float64 {
	return math.Exp(g.LogPDF(x))
}

// LogPDF implements Continuous.
func (g Gamma) LogPDF(x float64) float64 {
	if x < 0 || (x == 0 && g.shape != 1) {
		return math.Inf(-1)
	}
	if x == 0 { // shape == 1: exponential density at 0.
		return -math.Log(g.scale)
	}
	lg, _ := math.Lgamma(g.shape)
	return (g.shape-1)*math.Log(x) - x/g.scale - lg - g.shape*math.Log(g.scale)
}

// CDF implements Continuous.
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p, err := mathx.GammaRegP(g.shape, x/g.scale)
	if err != nil {
		return math.NaN()
	}
	return p
}

// Quantile implements Continuous.
func (g Gamma) Quantile(p float64) (float64, error) {
	if err := quantileDomain(p); err != nil {
		return math.NaN(), err
	}
	x, err := mathx.GammaPInv(g.shape, p)
	if err != nil {
		return math.NaN(), fmt.Errorf("gamma quantile: %w", err)
	}
	return x * g.scale, nil
}

// Mean implements Continuous.
func (g Gamma) Mean() float64 { return g.shape * g.scale }

// Var implements Continuous.
func (g Gamma) Var() float64 { return g.shape * g.scale * g.scale }

// Hazard implements Hazarder: h(t) = f(t) / (1 - F(t)).
func (g Gamma) Hazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	surv := 1 - g.CDF(t)
	if surv <= 0 {
		return math.Inf(1)
	}
	return g.PDF(t) / surv
}

// Rand implements Continuous.
func (g Gamma) Rand(src *randx.Source) float64 {
	return src.Gamma(g.shape, g.scale)
}

// FitGamma computes the maximum-likelihood gamma fit for strictly positive
// data, solving the shape equation ln k - ψ(k) = ln(mean) - mean(ln x) by
// Newton iteration from the standard closed-form starting point.
func FitGamma(xs []float64) (Gamma, error) {
	return newGammaSolver().fit(&NewSample(xs).t)
}
