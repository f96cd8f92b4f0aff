package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/randx"
)

// Exponential is the exponential distribution with rate λ (mean 1/λ). Its
// hazard rate is constant — the memoryless baseline the paper shows is a
// poor fit for both time between failures and repair time.
type Exponential struct {
	rate float64
}

var (
	_ Continuous    = Exponential{}
	_ Hazarder      = Exponential{}
	_ Parameterized = Exponential{}
)

// NewExponential constructs an exponential distribution with rate > 0.
func NewExponential(rate float64) (Exponential, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("exponential rate %g: %w", rate, ErrBadParam)
	}
	return Exponential{rate: rate}, nil
}

// Rate returns λ.
func (e Exponential) Rate() float64 { return e.rate }

// ParamNames implements Parameterized.
func (e Exponential) ParamNames() []string { return []string{"rate"} }

// ParamValues implements Parameterized.
func (e Exponential) ParamValues() []float64 { return e.appendParams(nil) }

func (e Exponential) appendParams(out []float64) []float64 { return append(out, e.rate) }

// Name implements Continuous.
func (e Exponential) Name() string { return "exponential" }

// NumParams implements Continuous.
func (e Exponential) NumParams() int { return 1 }

// Params implements Continuous.
func (e Exponential) Params() string { return fmt.Sprintf("rate=%.6g", e.rate) }

// PDF implements Continuous.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.rate * math.Exp(-e.rate*x)
}

// LogPDF implements Continuous.
func (e Exponential) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(e.rate) - e.rate*x
}

// CDF implements Continuous.
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return -math.Expm1(-e.rate * x)
}

// Quantile implements Continuous.
func (e Exponential) Quantile(p float64) (float64, error) {
	if err := quantileDomain(p); err != nil {
		return math.NaN(), err
	}
	if p == 1 {
		return math.Inf(1), nil
	}
	return -math.Log1p(-p) / e.rate, nil
}

// Mean implements Continuous.
func (e Exponential) Mean() float64 { return 1 / e.rate }

// Var implements Continuous.
func (e Exponential) Var() float64 { return 1 / (e.rate * e.rate) }

// Hazard implements Hazarder; the exponential hazard is constant.
func (e Exponential) Hazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	return e.rate
}

// Rand implements Continuous.
func (e Exponential) Rand(src *randx.Source) float64 {
	return src.Exponential(e.rate)
}

// FitExponential computes the maximum-likelihood exponential fit
// (rate = 1/mean) for strictly positive data.
func FitExponential(xs []float64) (Exponential, error) {
	return fitExponentialKernel(&NewSample(xs).t)
}
