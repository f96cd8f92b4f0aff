package dist

import (
	"math"
	"testing"
	"testing/quick"

	"hpcfail/internal/randx"
)

// clampParam maps an arbitrary float into [lo, hi] deterministically, for
// property tests over random parameters.
func clampParam(raw, lo, hi float64) float64 {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		raw = 1
	}
	span := hi - lo
	v := math.Mod(math.Abs(raw), span)
	return lo + v
}

func TestQuickWeibullFitRecovery(t *testing.T) {
	src := randx.NewSource(11)
	f := func(rawShape, rawScale float64) bool {
		shape := clampParam(rawShape, 0.4, 3)
		scale := clampParam(rawScale, 0.5, 1e4)
		truth, err := NewWeibull(shape, scale)
		if err != nil {
			return false
		}
		xs := make([]float64, 4000)
		for i := range xs {
			xs[i] = truth.Rand(src)
		}
		fit, err := FitWeibull(xs)
		if err != nil {
			return false
		}
		return rel(fit.Shape(), shape) < 0.12 && rel(fit.Scale(), scale) < 0.12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGammaFitRecovery(t *testing.T) {
	src := randx.NewSource(12)
	f := func(rawShape, rawScale float64) bool {
		shape := clampParam(rawShape, 0.4, 5)
		scale := clampParam(rawScale, 0.5, 1e3)
		truth, err := NewGamma(shape, scale)
		if err != nil {
			return false
		}
		xs := make([]float64, 4000)
		for i := range xs {
			xs[i] = truth.Rand(src)
		}
		fit, err := FitGamma(xs)
		if err != nil {
			return false
		}
		return rel(fit.Shape(), shape) < 0.15 && rel(fit.Scale(), scale) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogNormalFitRecovery(t *testing.T) {
	src := randx.NewSource(13)
	f := func(rawMu, rawSigma float64) bool {
		mu := clampParam(rawMu, -3, 8)
		sigma := clampParam(rawSigma, 0.2, 2.5)
		truth, err := NewLogNormal(mu, sigma)
		if err != nil {
			return false
		}
		xs := make([]float64, 4000)
		for i := range xs {
			xs[i] = truth.Rand(src)
		}
		fit, err := FitLogNormal(xs)
		if err != nil {
			return false
		}
		return math.Abs(fit.Mu()-mu) < 0.15 && rel(fit.Sigma(), sigma) < 0.12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	// For every distribution and random probability pair, quantiles are
	// monotone in p.
	for _, d := range allContinuous(t) {
		d := d
		f := func(rawP, rawQ float64) bool {
			p := clampParam(rawP, 0.001, 0.999)
			q := clampParam(rawQ, 0.001, 0.999)
			if p > q {
				p, q = q, p
			}
			xp, err1 := d.Quantile(p)
			xq, err2 := d.Quantile(q)
			if err1 != nil || err2 != nil {
				return false
			}
			return xp <= xq+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestQuickNLLOptimalAtFit(t *testing.T) {
	// The MLE fit should have an NLL no worse than nearby perturbed
	// parameterizations — a sanity check that the fitters actually sit at
	// a likelihood optimum.
	src := randx.NewSource(14)
	truth, err := NewWeibull(0.8, 200)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	fit, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	nllFit, err := NegLogLikelihood(fit, xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, mult := range []float64{0.9, 1.1} {
		perturbedShape, err := NewWeibull(fit.Shape()*mult, fit.Scale())
		if err != nil {
			t.Fatal(err)
		}
		nll, err := NegLogLikelihood(perturbedShape, xs)
		if err != nil {
			t.Fatal(err)
		}
		if nll < nllFit {
			t.Fatalf("perturbed shape x%g has lower NLL (%g < %g)", mult, nll, nllFit)
		}
		perturbedScale, err := NewWeibull(fit.Shape(), fit.Scale()*mult)
		if err != nil {
			t.Fatal(err)
		}
		nll, err = NegLogLikelihood(perturbedScale, xs)
		if err != nil {
			t.Fatal(err)
		}
		if nll < nllFit {
			t.Fatalf("perturbed scale x%g has lower NLL (%g < %g)", mult, nll, nllFit)
		}
	}
}
