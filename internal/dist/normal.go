package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/mathx"
	"hpcfail/internal/randx"
)

// Normal is the normal distribution N(mu, sigma²). The paper fits it (with
// Poisson and lognormal) to the distribution of per-node failure counts in
// Figure 3(b).
type Normal struct {
	mu, sigma float64
}

var _ Continuous = Normal{}

// NewNormal constructs a normal distribution with sigma > 0.
func NewNormal(mu, sigma float64) (Normal, error) {
	if !(sigma > 0) || math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsInf(sigma, 0) {
		return Normal{}, fmt.Errorf("normal mu=%g sigma=%g: %w", mu, sigma, ErrBadParam)
	}
	return Normal{mu: mu, sigma: sigma}, nil
}

// Mu returns the mean parameter.
func (n Normal) Mu() float64 { return n.mu }

// Sigma returns the standard deviation parameter.
func (n Normal) Sigma() float64 { return n.sigma }

// ParamNames implements Parameterized.
func (n Normal) ParamNames() []string { return []string{"mu", "sigma"} }

// ParamValues implements Parameterized.
func (n Normal) ParamValues() []float64 { return []float64{n.mu, n.sigma} }

// Name implements Continuous.
func (n Normal) Name() string { return "normal" }

// NumParams implements Continuous.
func (n Normal) NumParams() int { return 2 }

// Params implements Continuous.
func (n Normal) Params() string {
	return fmt.Sprintf("mu=%.6g sigma=%.6g", n.mu, n.sigma)
}

// PDF implements Continuous.
func (n Normal) PDF(x float64) float64 {
	return mathx.NormPDF((x-n.mu)/n.sigma) / n.sigma
}

// LogPDF implements Continuous.
func (n Normal) LogPDF(x float64) float64 {
	z := (x - n.mu) / n.sigma
	return -0.5*z*z - math.Log(n.sigma) - 0.5*math.Log(2*math.Pi)
}

// CDF implements Continuous.
func (n Normal) CDF(x float64) float64 {
	return mathx.NormCDF((x - n.mu) / n.sigma)
}

// Quantile implements Continuous.
func (n Normal) Quantile(p float64) (float64, error) {
	if err := quantileDomain(p); err != nil {
		return math.NaN(), err
	}
	z, err := mathx.NormQuantile(p)
	if err != nil {
		return math.NaN(), fmt.Errorf("normal quantile: %w", err)
	}
	return n.mu + n.sigma*z, nil
}

// Mean implements Continuous.
func (n Normal) Mean() float64 { return n.mu }

// Var implements Continuous.
func (n Normal) Var() float64 { return n.sigma * n.sigma }

// Rand implements Continuous.
func (n Normal) Rand(src *randx.Source) float64 {
	return src.Normal(n.mu, n.sigma)
}

// FitNormal computes the maximum-likelihood normal fit (sample mean and
// 1/n standard deviation).
func FitNormal(xs []float64) (Normal, error) {
	return fitNormalKernel(&NewSample(xs).t)
}
