package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/mathx"
	"hpcfail/internal/randx"
)

// LogNormal is the lognormal distribution: X = exp(N(mu, sigma²)). The
// paper finds it the best model for repair times (Section 6) and for early
// per-node TBF (Figure 6a).
type LogNormal struct {
	mu, sigma float64
}

var (
	_ Continuous = LogNormal{}
	_ Hazarder   = LogNormal{}
)

// NewLogNormal constructs a lognormal distribution with sigma > 0.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if !(sigma > 0) || math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsInf(sigma, 0) {
		return LogNormal{}, fmt.Errorf("lognormal mu=%g sigma=%g: %w", mu, sigma, ErrBadParam)
	}
	return LogNormal{mu: mu, sigma: sigma}, nil
}

// Mu returns the log-domain mean parameter.
func (l LogNormal) Mu() float64 { return l.mu }

// Sigma returns the log-domain standard deviation parameter.
func (l LogNormal) Sigma() float64 { return l.sigma }

// ParamNames implements Parameterized.
func (l LogNormal) ParamNames() []string { return []string{"mu", "sigma"} }

// ParamValues implements Parameterized.
func (l LogNormal) ParamValues() []float64 { return []float64{l.mu, l.sigma} }

// Name implements Continuous.
func (l LogNormal) Name() string { return "lognormal" }

// NumParams implements Continuous.
func (l LogNormal) NumParams() int { return 2 }

// Params implements Continuous.
func (l LogNormal) Params() string {
	return fmt.Sprintf("mu=%.6g sigma=%.6g", l.mu, l.sigma)
}

// PDF implements Continuous.
func (l LogNormal) PDF(x float64) float64 {
	return math.Exp(l.LogPDF(x))
}

// LogPDF implements Continuous.
func (l LogNormal) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - l.mu) / l.sigma
	return -math.Log(x*l.sigma) - 0.5*math.Log(2*math.Pi) - 0.5*z*z
}

// CDF implements Continuous.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return mathx.NormCDF((math.Log(x) - l.mu) / l.sigma)
}

// Quantile implements Continuous.
func (l LogNormal) Quantile(p float64) (float64, error) {
	if err := quantileDomain(p); err != nil {
		return math.NaN(), err
	}
	z, err := mathx.NormQuantile(p)
	if err != nil {
		return math.NaN(), fmt.Errorf("lognormal quantile: %w", err)
	}
	return math.Exp(l.mu + l.sigma*z), nil
}

// Mean implements Continuous.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.mu + l.sigma*l.sigma/2)
}

// Var implements Continuous.
func (l LogNormal) Var() float64 {
	s2 := l.sigma * l.sigma
	return math.Expm1(s2) * math.Exp(2*l.mu+s2)
}

// Median returns exp(mu), the distribution median — for repair times the
// paper contrasts the median sharply with the mean.
func (l LogNormal) Median() float64 { return math.Exp(l.mu) }

// Hazard implements Hazarder.
func (l LogNormal) Hazard(t float64) float64 {
	if t <= 0 {
		return 0
	}
	surv := 1 - l.CDF(t)
	if surv <= 0 {
		return math.Inf(1)
	}
	return l.PDF(t) / surv
}

// Rand implements Continuous.
func (l LogNormal) Rand(src *randx.Source) float64 {
	return src.LogNormal(l.mu, l.sigma)
}

// FitLogNormal computes the maximum-likelihood lognormal fit: the sample
// mean and (MLE, 1/n) standard deviation of the log data.
func FitLogNormal(xs []float64) (LogNormal, error) {
	return fitLogNormalKernel(&NewSample(xs).t)
}
