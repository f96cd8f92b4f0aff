package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/randx"
)

// Pareto is the Pareto (power-law) distribution with minimum xm and tail
// index alpha. The paper considered it for TBF (footnote 1) but found it no
// better than the standard four; we include it so that comparison can be
// reproduced.
type Pareto struct {
	xm, alpha float64
}

var (
	_ Continuous = Pareto{}
	_ Hazarder   = Pareto{}
)

// NewPareto constructs a Pareto distribution with xm, alpha > 0.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if !(xm > 0) || !(alpha > 0) || math.IsInf(xm, 0) || math.IsInf(alpha, 0) {
		return Pareto{}, fmt.Errorf("pareto xm=%g alpha=%g: %w", xm, alpha, ErrBadParam)
	}
	return Pareto{xm: xm, alpha: alpha}, nil
}

// ParamNames implements Parameterized.
func (p Pareto) ParamNames() []string { return []string{"xm", "alpha"} }

// ParamValues implements Parameterized.
func (p Pareto) ParamValues() []float64 { return p.appendParams(nil) }

func (p Pareto) appendParams(out []float64) []float64 { return append(out, p.xm, p.alpha) }

// Name implements Continuous.
func (p Pareto) Name() string { return "pareto" }

// NumParams implements Continuous.
func (p Pareto) NumParams() int { return 2 }

// Params implements Continuous.
func (p Pareto) Params() string {
	return fmt.Sprintf("xm=%.6g alpha=%.6g", p.xm, p.alpha)
}

// PDF implements Continuous.
func (p Pareto) PDF(x float64) float64 {
	if x < p.xm {
		return 0
	}
	return p.alpha * math.Pow(p.xm, p.alpha) / math.Pow(x, p.alpha+1)
}

// LogPDF implements Continuous.
func (p Pareto) LogPDF(x float64) float64 {
	if x < p.xm {
		return math.Inf(-1)
	}
	return math.Log(p.alpha) + p.alpha*math.Log(p.xm) - (p.alpha+1)*math.Log(x)
}

// CDF implements Continuous.
func (p Pareto) CDF(x float64) float64 {
	if x < p.xm {
		return 0
	}
	return 1 - math.Pow(p.xm/x, p.alpha)
}

// Quantile implements Continuous.
func (p Pareto) Quantile(q float64) (float64, error) {
	if err := quantileDomain(q); err != nil {
		return math.NaN(), err
	}
	if q == 1 {
		return math.Inf(1), nil
	}
	return p.xm / math.Pow(1-q, 1/p.alpha), nil
}

// Mean implements Continuous; infinite for alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.alpha <= 1 {
		return math.Inf(1)
	}
	return p.alpha * p.xm / (p.alpha - 1)
}

// Var implements Continuous; infinite for alpha <= 2.
func (p Pareto) Var() float64 {
	if p.alpha <= 2 {
		return math.Inf(1)
	}
	a := p.alpha
	return p.xm * p.xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// Hazard implements Hazarder: h(t) = alpha/t on the support (decreasing).
func (p Pareto) Hazard(t float64) float64 {
	if t < p.xm {
		return 0
	}
	return p.alpha / t
}

// Rand implements Continuous.
func (p Pareto) Rand(src *randx.Source) float64 {
	return src.Pareto(p.xm, p.alpha)
}
