package dist

import (
	"errors"
	"math"
	"testing"

	"hpcfail/internal/randx"
)

func TestHyperExpValidation(t *testing.T) {
	cases := [][3]float64{
		{0, 1, 2}, {1, 1, 2}, {0.5, 0, 2}, {0.5, 1, -1}, {0.5, math.Inf(1), 1},
	}
	for _, c := range cases {
		if _, err := NewHyperExp(c[0], c[1], c[2]); !errors.Is(err, ErrBadParam) {
			t.Errorf("NewHyperExp(%v): want ErrBadParam, got %v", c, err)
		}
	}
}

func TestHyperExpBasics(t *testing.T) {
	h, err := NewHyperExp(0.3, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Mean: 0.3/2 + 0.7/0.1 = 7.15.
	if math.Abs(h.Mean()-7.15) > 1e-12 {
		t.Fatalf("mean = %g", h.Mean())
	}
	// CDF/Quantile round trip.
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		x, err := h.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(h.CDF(x)-q) > 1e-9 {
			t.Fatalf("CDF(Quantile(%g)) = %g", q, h.CDF(x))
		}
	}
	// PDF integrates against the CDF (central difference).
	for _, x := range []float64{0.5, 2, 10, 30} {
		hstep := 1e-6 * (1 + x)
		num := (h.CDF(x+hstep) - h.CDF(x-hstep)) / (2 * hstep)
		if math.Abs(num-h.PDF(x)) > 1e-4*h.PDF(x) {
			t.Fatalf("dCDF(%g) = %g, PDF = %g", x, num, h.PDF(x))
		}
	}
	// Negative support.
	if h.PDF(-1) != 0 || h.CDF(-1) != 0 || !math.IsInf(h.LogPDF(-1), -1) {
		t.Fatal("negative support should be empty")
	}
	// Hazard decreases (mixture of exponentials is always DFR).
	if !(h.Hazard(0.1) > h.Hazard(10)) {
		t.Fatal("hyperexp hazard should decrease")
	}
	// Squared coefficient of variation > 1: more variable than exponential.
	if c2 := h.Var() / (h.Mean() * h.Mean()); c2 <= 1 {
		t.Fatalf("C2 = %g, want > 1", c2)
	}
	if h.NumParams() != 3 || h.Name() != "hyperexp" {
		t.Fatal("metadata")
	}
}

func TestFitHyperExpRecovers(t *testing.T) {
	truth, err := NewHyperExp(0.35, 1.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	src := randx.NewSource(21)
	xs := make([]float64, 60000)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	d, err := FitSample(FamilyHyperExp, NewSample(xs))
	if err != nil {
		t.Fatal(err)
	}
	// EM can swap phase labels; normalize by comparing the faster rate.
	fit := d.(HyperExp)
	p, r1, r2 := fit.p, fit.rate1, fit.rate2
	if r1 < r2 {
		p, r1, r2 = 1-p, r2, r1
	}
	if math.Abs(p-0.35) > 0.03 {
		t.Fatalf("p = %g", p)
	}
	if rel(r1, 1.5) > 0.1 || rel(r2, 0.05) > 0.1 {
		t.Fatalf("rates = %g, %g", r1, r2)
	}
}

func TestFitHyperExpErrors(t *testing.T) {
	if _, err := FitSample(FamilyHyperExp, NewSample([]float64{1, 2})); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("too few")
	}
	if _, err := FitSample(FamilyHyperExp, NewSample([]float64{1, 2, -1, 3})); !errors.Is(err, ErrUnsupported) {
		t.Fatal("negative")
	}
	if _, err := FitSample(FamilyHyperExp, NewSample([]float64{5, 5, 5, 5})); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("identical")
	}
}

func TestHyperExpOnWeibullDataMatchesPaperRemark(t *testing.T) {
	// Section 3: a phase-type distribution "would likely give a better fit"
	// but the gain over the simple families does not justify the extra
	// parameter. Verify the trade-off: on Weibull(0.7) data the fitted
	// hyperexponential beats the exponential decisively, yet the Weibull
	// remains at least as good per AIC.
	src := randx.NewSource(22)
	truth, err := NewWeibull(0.7, 300)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	he, err := FitSample(FamilyHyperExp, NewSample(xs))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	nllHE, err := NegLogLikelihood(he, xs)
	if err != nil {
		t.Fatal(err)
	}
	nllWB, err := NegLogLikelihood(wb, xs)
	if err != nil {
		t.Fatal(err)
	}
	nllExp, err := NegLogLikelihood(exp, xs)
	if err != nil {
		t.Fatal(err)
	}
	if nllHE >= nllExp {
		t.Fatalf("hyperexp NLL %g should beat exponential %g", nllHE, nllExp)
	}
	aicHE := 2*3 + 2*nllHE
	aicWB := 2*2 + 2*nllWB
	if aicWB > aicHE {
		t.Fatalf("Weibull AIC %g should be <= hyperexp AIC %g on Weibull data", aicWB, aicHE)
	}
}
