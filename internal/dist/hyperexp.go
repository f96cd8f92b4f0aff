package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/randx"
)

// HyperExp is a two-phase hyperexponential distribution: with probability p
// the variate is Exponential(rate1), otherwise Exponential(rate2). It is
// the simplest phase-type distribution, included because the paper's
// Section 3 notes that "a phase-type distribution with a high number of
// phases would likely give a better fit than any of the above standard
// distributions" but prefers the simpler families. With this type that
// trade-off can be measured: the extra parameter usually buys only a
// marginal NLL gain over the Weibull on the LANL-like data.
type HyperExp struct {
	p            float64
	rate1, rate2 float64
}

var (
	_ Continuous = HyperExp{}
	_ Hazarder   = HyperExp{}
)

// NewHyperExp constructs a two-phase hyperexponential with mixing
// probability p in (0, 1) and positive rates.
func NewHyperExp(p, rate1, rate2 float64) (HyperExp, error) {
	if !(p > 0) || !(p < 1) || !(rate1 > 0) || !(rate2 > 0) ||
		math.IsInf(rate1, 0) || math.IsInf(rate2, 0) {
		return HyperExp{}, fmt.Errorf("hyperexp p=%g rates=%g,%g: %w", p, rate1, rate2, ErrBadParam)
	}
	return HyperExp{p: p, rate1: rate1, rate2: rate2}, nil
}

// ParamNames implements Parameterized.
func (h HyperExp) ParamNames() []string { return []string{"p", "rate1", "rate2"} }

// ParamValues implements Parameterized.
func (h HyperExp) ParamValues() []float64 { return h.appendParams(nil) }

func (h HyperExp) appendParams(out []float64) []float64 { return append(out, h.p, h.rate1, h.rate2) }

// Name implements Continuous.
func (h HyperExp) Name() string { return "hyperexp" }

// NumParams implements Continuous.
func (h HyperExp) NumParams() int { return 3 }

// Params implements Continuous.
func (h HyperExp) Params() string {
	return fmt.Sprintf("p=%.4g rate1=%.6g rate2=%.6g", h.p, h.rate1, h.rate2)
}

// PDF implements Continuous.
func (h HyperExp) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return h.p*h.rate1*math.Exp(-h.rate1*x) + (1-h.p)*h.rate2*math.Exp(-h.rate2*x)
}

// LogPDF implements Continuous.
func (h HyperExp) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	pdf := h.PDF(x)
	if pdf <= 0 {
		return math.Inf(-1)
	}
	return math.Log(pdf)
}

// CDF implements Continuous.
func (h HyperExp) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - h.p*math.Exp(-h.rate1*x) - (1-h.p)*math.Exp(-h.rate2*x)
}

// Quantile implements Continuous by bisection on the CDF (no closed form).
func (h HyperExp) Quantile(q float64) (float64, error) {
	if err := quantileDomain(q); err != nil {
		return math.NaN(), err
	}
	if q == 0 {
		return 0, nil
	}
	if q == 1 {
		return math.Inf(1), nil
	}
	// Bracket: the slower phase bounds the tail.
	slow := math.Min(h.rate1, h.rate2)
	hi := -math.Log(1-q)/slow + 1
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if h.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// Mean implements Continuous.
func (h HyperExp) Mean() float64 {
	return h.p/h.rate1 + (1-h.p)/h.rate2
}

// Var implements Continuous.
func (h HyperExp) Var() float64 {
	m := h.Mean()
	m2 := 2*h.p/(h.rate1*h.rate1) + 2*(1-h.p)/(h.rate2*h.rate2)
	return m2 - m*m
}

// Hazard implements Hazarder. A hyperexponential always has a decreasing
// hazard rate — like the paper's fitted Weibulls.
func (h HyperExp) Hazard(t float64) float64 {
	if t < 0 {
		return 0
	}
	surv := h.p*math.Exp(-h.rate1*t) + (1-h.p)*math.Exp(-h.rate2*t)
	if surv <= 0 {
		return math.Inf(1)
	}
	return h.PDF(t) / surv
}

// Rand implements Continuous.
func (h HyperExp) Rand(src *randx.Source) float64 {
	if src.Float64() < h.p {
		return src.Exponential(h.rate1)
	}
	return src.Exponential(h.rate2)
}
