package dist

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hpcfail/internal/randx"
)

// allContinuous returns one instance of every continuous distribution for
// generic property tests.
func allContinuous(t *testing.T) []Continuous {
	t.Helper()
	exp, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewWeibull(0.7, 100)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGamma(2.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLogNormal(3, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NewNormal(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPareto(5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	return []Continuous{exp, wb, gm, ln, nm, pt}
}

func TestConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"exp rate 0", func() error { _, err := NewExponential(0); return err }()},
		{"exp rate -1", func() error { _, err := NewExponential(-1); return err }()},
		{"weibull shape 0", func() error { _, err := NewWeibull(0, 1); return err }()},
		{"weibull scale 0", func() error { _, err := NewWeibull(1, 0); return err }()},
		{"gamma shape -1", func() error { _, err := NewGamma(-1, 1); return err }()},
		{"lognormal sigma 0", func() error { _, err := NewLogNormal(0, 0); return err }()},
		{"lognormal mu NaN", func() error { _, err := NewLogNormal(math.NaN(), 1); return err }()},
		{"normal sigma 0", func() error { _, err := NewNormal(0, 0); return err }()},
		{"pareto xm 0", func() error { _, err := NewPareto(0, 1); return err }()},
		{"poisson mean 0", func() error { _, err := NewPoisson(0); return err }()},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrBadParam) {
			t.Errorf("%s: want ErrBadParam, got %v", tc.name, tc.err)
		}
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	for _, d := range allContinuous(t) {
		for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
			x, err := d.Quantile(p)
			if err != nil {
				t.Fatalf("%s quantile(%g): %v", d.Name(), p, err)
			}
			back := d.CDF(x)
			if math.Abs(back-p) > 1e-8 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", d.Name(), p, back)
			}
		}
		// Domain checks.
		if _, err := d.Quantile(-0.1); err == nil {
			t.Errorf("%s: quantile(-0.1) should fail", d.Name())
		}
		if _, err := d.Quantile(1.1); err == nil {
			t.Errorf("%s: quantile(1.1) should fail", d.Name())
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range allContinuous(t) {
		d := d
		f := func(rawA, rawB float64) bool {
			a := math.Mod(math.Abs(rawA), 1e4)
			b := math.Mod(math.Abs(rawB), 1e4)
			if a > b {
				a, b = b, a
			}
			ca, cb := d.CDF(a), d.CDF(b)
			return ca >= 0 && cb <= 1 && ca <= cb+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestPDFMatchesCDFDerivative(t *testing.T) {
	// Central difference of the CDF should match the PDF. Points are chosen
	// in the body of each distribution: finite differences are meaningless
	// at support boundaries (Pareto's xm) and drown in rounding error deep
	// in the exponential tail.
	for _, d := range allContinuous(t) {
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			x, err := d.Quantile(p)
			if err != nil {
				t.Fatalf("%s quantile(%g): %v", d.Name(), p, err)
			}
			h := 1e-5 * math.Max(1, math.Abs(x))
			num := (d.CDF(x+h) - d.CDF(x-h)) / (2 * h)
			pdf := d.PDF(x)
			if math.Abs(num-pdf) > 1e-3*math.Max(1e-9, pdf) {
				t.Errorf("%s at %g: dCDF=%g, PDF=%g", d.Name(), x, num, pdf)
			}
		}
	}
}

func TestLogPDFConsistentWithPDF(t *testing.T) {
	for _, d := range allContinuous(t) {
		for _, x := range []float64{0.5, 1, 10, 100} {
			pdf := d.PDF(x)
			lp := d.LogPDF(x)
			if pdf == 0 {
				if !math.IsInf(lp, -1) {
					t.Errorf("%s at %g: PDF 0 but LogPDF %g", d.Name(), x, lp)
				}
				continue
			}
			if math.Abs(math.Log(pdf)-lp) > 1e-9 {
				t.Errorf("%s at %g: log(PDF)=%g, LogPDF=%g", d.Name(), x, math.Log(pdf), lp)
			}
		}
	}
}

func TestSampleMomentsMatchTheory(t *testing.T) {
	src := randx.NewSource(99)
	const n = 150000
	for _, d := range allContinuous(t) {
		if math.IsInf(d.Var(), 1) {
			continue // Pareto with alpha<=2 etc.
		}
		var sum float64
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = d.Rand(src)
			sum += xs[i]
		}
		mean := sum / n
		if math.Abs(mean-d.Mean()) > 0.05*math.Max(1, math.Abs(d.Mean())) {
			t.Errorf("%s: sample mean %g vs theory %g", d.Name(), mean, d.Mean())
		}
	}
}

func TestNegativeSupport(t *testing.T) {
	for _, d := range allContinuous(t) {
		if d.Name() == "normal" {
			continue
		}
		if d.PDF(-1) != 0 {
			t.Errorf("%s: PDF(-1) = %g, want 0", d.Name(), d.PDF(-1))
		}
		if d.CDF(-1) != 0 {
			t.Errorf("%s: CDF(-1) = %g, want 0", d.Name(), d.CDF(-1))
		}
	}
}

func TestHazardDirections(t *testing.T) {
	// Weibull shape < 1: decreasing hazard (the paper's TBF finding).
	wb, err := NewWeibull(0.7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.HazardDecreasing() {
		t.Fatal("shape 0.7 should report decreasing hazard")
	}
	if !(wb.Hazard(10) > wb.Hazard(100)) {
		t.Fatal("shape 0.7 hazard should decrease")
	}
	// Weibull shape > 1: increasing.
	wb2, err := NewWeibull(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if wb2.HazardDecreasing() {
		t.Fatal("shape 2 should not report decreasing hazard")
	}
	if !(wb2.Hazard(10) < wb2.Hazard(100)) {
		t.Fatal("shape 2 hazard should increase")
	}
	// Exponential: constant.
	exp, err := NewExponential(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Hazard(1) != 0.25 || exp.Hazard(1000) != 0.25 {
		t.Fatal("exponential hazard should be constant")
	}
	// Gamma shape < 1: decreasing.
	gm, err := NewGamma(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(gm.Hazard(1) > gm.Hazard(50)) {
		t.Fatal("gamma shape 0.5 hazard should decrease")
	}
	// Pareto: h(t) = alpha/t.
	pt, err := NewPareto(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.Hazard(10)-0.3) > 1e-12 {
		t.Fatalf("pareto hazard at 10 = %g", pt.Hazard(10))
	}
}

func TestC2(t *testing.T) {
	exp, _ := NewExponential(2)
	if math.Abs(C2(exp)-1) > 1e-12 {
		t.Fatalf("exponential C2 = %g, want 1", C2(exp))
	}
	// Weibull shape < 1 has C2 > 1 (the over-dispersion the paper measures).
	wb, _ := NewWeibull(0.7, 50)
	if C2(wb) <= 1 {
		t.Fatalf("weibull(0.7) C2 = %g, want > 1", C2(wb))
	}
	wb2, _ := NewWeibull(2, 50)
	if C2(wb2) >= 1 {
		t.Fatalf("weibull(2) C2 = %g, want < 1", C2(wb2))
	}
}

func TestPoissonBasics(t *testing.T) {
	p, err := NewPoisson(3.5)
	if err != nil {
		t.Fatal(err)
	}
	// PMF sums to ~1.
	sum := 0.0
	for k := 0; k < 60; k++ {
		sum += p.PMF(k)
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("PMF sum = %g", sum)
	}
	// CDF consistency with cumulative PMF.
	acc := 0.0
	for k := 0; k < 15; k++ {
		acc += p.PMF(k)
		if math.Abs(p.CDF(k)-acc) > 1e-10 {
			t.Fatalf("CDF(%d) = %g, cumsum = %g", k, p.CDF(k), acc)
		}
	}
	if p.CDF(-1) != 0 {
		t.Fatal("CDF(-1) should be 0")
	}
	if !math.IsInf(p.LogPMF(-2), -1) {
		t.Fatal("LogPMF(-2) should be -Inf")
	}
	if p.Mean() != 3.5 || p.Var() != 3.5 {
		t.Fatal("Poisson moments wrong")
	}
}

func TestFitRecoversParameters(t *testing.T) {
	src := randx.NewSource(7)
	const n = 60000

	t.Run("exponential", func(t *testing.T) {
		truth, _ := NewExponential(0.02)
		xs := sample(truth, src, n)
		fit, err := FitExponential(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Rate(), 0.02) > 0.03 {
			t.Fatalf("rate = %g", fit.Rate())
		}
	})

	t.Run("weibull", func(t *testing.T) {
		truth, _ := NewWeibull(0.75, 800)
		xs := sample(truth, src, n)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Shape(), 0.75) > 0.03 || rel(fit.Scale(), 800) > 0.03 {
			t.Fatalf("shape=%g scale=%g", fit.Shape(), fit.Scale())
		}
	})

	t.Run("gamma", func(t *testing.T) {
		truth, _ := NewGamma(1.8, 40)
		xs := sample(truth, src, n)
		fit, err := FitGamma(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Shape(), 1.8) > 0.04 || rel(fit.Scale(), 40) > 0.04 {
			t.Fatalf("shape=%g scale=%g", fit.Shape(), fit.Scale())
		}
	})

	t.Run("gamma shape below one", func(t *testing.T) {
		truth, _ := NewGamma(0.6, 100)
		xs := sample(truth, src, n)
		fit, err := FitGamma(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Shape(), 0.6) > 0.05 {
			t.Fatalf("shape=%g", fit.Shape())
		}
	})

	t.Run("lognormal", func(t *testing.T) {
		truth, _ := NewLogNormal(4, 1.3)
		xs := sample(truth, src, n)
		fit, err := FitLogNormal(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Mu()-4) > 0.03 || rel(fit.Sigma(), 1.3) > 0.03 {
			t.Fatalf("mu=%g sigma=%g", fit.Mu(), fit.Sigma())
		}
	})

	t.Run("normal", func(t *testing.T) {
		truth, _ := NewNormal(-3, 7)
		xs := sample(truth, src, n)
		fit, err := FitNormal(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Mu()+3) > 0.1 || rel(fit.Sigma(), 7) > 0.03 {
			t.Fatalf("mu=%g sigma=%g", fit.Mu(), fit.Sigma())
		}
	})

	t.Run("pareto", func(t *testing.T) {
		truth, _ := NewPareto(10, 2.2)
		xs := sample(truth, src, n)
		fit, err := FitParetoSample(NewSample(xs))
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Alpha(), 2.2) > 0.05 || rel(fit.Xm(), 10) > 0.01 {
			t.Fatalf("xm=%g alpha=%g", fit.Xm(), fit.Alpha())
		}
	})

	t.Run("poisson", func(t *testing.T) {
		truth, _ := NewPoisson(27)
		counts := make([]int, 30000)
		for i := range counts {
			counts[i] = truth.Rand(src)
		}
		fit, err := FitPoisson(counts)
		if err != nil {
			t.Fatal(err)
		}
		if rel(fit.Mean(), 27) > 0.02 {
			t.Fatalf("mean = %g", fit.Mean())
		}
	})
}

func sample(d Continuous, src *randx.Source, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Rand(src)
	}
	return xs
}

func rel(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestFitErrorCases(t *testing.T) {
	withZero := []float64{1, 2, 0}
	withNeg := []float64{1, -2, 3}
	identical := []float64{5, 5, 5, 5}

	if _, err := FitExponential(nil); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("exp empty: %v", err)
	}
	if _, err := FitExponential(withZero); !errors.Is(err, ErrUnsupported) {
		t.Errorf("exp zero: %v", err)
	}
	if _, err := FitWeibull([]float64{1}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("weibull single: %v", err)
	}
	if _, err := FitWeibull(withNeg); !errors.Is(err, ErrUnsupported) {
		t.Errorf("weibull negative: %v", err)
	}
	if _, err := FitWeibull(identical); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("weibull identical: %v", err)
	}
	if _, err := FitGamma(identical); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("gamma identical: %v", err)
	}
	if _, err := FitLogNormal(identical); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("lognormal identical: %v", err)
	}
	if _, err := FitNormal(identical); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("normal identical: %v", err)
	}
	if _, err := FitNormal([]float64{1, math.NaN()}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("normal NaN: %v", err)
	}
	if _, err := FitParetoSample(NewSample(identical)); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("pareto identical: %v", err)
	}
	if _, err := FitPoisson([]int{-1, 2}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("poisson negative: %v", err)
	}
	if _, err := FitPoisson([]int{0, 0}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("poisson zeros: %v", err)
	}
}

func TestNegLogLikelihood(t *testing.T) {
	exp, _ := NewExponential(1)
	xs := []float64{1, 2, 3}
	nll, err := NegLogLikelihood(exp, xs)
	if err != nil {
		t.Fatal(err)
	}
	// -Σ log(e^-x) = Σ x = 6.
	if math.Abs(nll-6) > 1e-12 {
		t.Fatalf("NLL = %g, want 6", nll)
	}
	// Impossible observation → +Inf.
	nll, err = NegLogLikelihood(exp, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(nll, 1) {
		t.Fatalf("NLL with impossible obs = %g, want +Inf", nll)
	}
	if _, err := NegLogLikelihood(exp, nil); err == nil {
		t.Fatal("empty: want error")
	}
}

func TestFitAllSelectsGeneratingFamily(t *testing.T) {
	src := randx.NewSource(123)
	const n = 20000

	// Weibull(0.7) data: Weibull should beat exponential decisively, and the
	// best fit should have a decreasing hazard, mirroring Figure 6(b).
	truth, _ := NewWeibull(0.7, 500)
	xs := sample(truth, src, n)
	cmp, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	best, err := cmp.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Family != FamilyWeibull && best.Family != FamilyGamma {
		t.Fatalf("best family = %v", best.Family)
	}
	expRes, ok := cmp.ByFamily(FamilyExponential)
	if !ok {
		t.Fatal("exponential result missing")
	}
	if expRes.NLL <= best.NLL {
		t.Fatal("exponential should fit worse than weibull/gamma")
	}

	// Lognormal data: lognormal must win (the repair-time situation).
	lnTruth, _ := NewLogNormal(4, 1.5)
	xs = sample(lnTruth, src, n)
	cmp, err = FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	best, err = cmp.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Family != FamilyLogNormal {
		t.Fatalf("best family for lognormal data = %v", best.Family)
	}
}

func TestFitAllToleratesFailingFamily(t *testing.T) {
	// Normal data with negative values: positive-support families fail but
	// the comparison still returns, with normal winning.
	src := randx.NewSource(5)
	nm, _ := NewNormal(0, 1)
	xs := sample(nm, src, 5000)
	cmp, err := FitAll(xs, FamilyNormal, FamilyWeibull, FamilyLogNormal)
	if err != nil {
		t.Fatal(err)
	}
	best, err := cmp.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Family != FamilyNormal {
		t.Fatalf("best = %v", best.Family)
	}
	wb, ok := cmp.ByFamily(FamilyWeibull)
	if !ok || wb.Err == nil {
		t.Fatal("weibull on negative data should have recorded an error")
	}
}

// A fit whose likelihood is infinite on its own data (here a Weibull
// shape so small the density diverges at the tiny value) is recorded as
// an error with +Inf NLL and AIC, so it ranks last instead of first.
func TestFitOneRejectsInfiniteLikelihood(t *testing.T) {
	xs := []float64{1e-300, 1e300, 1, 2}
	wb := FitOne(FamilyWeibull, NewSample(xs))
	if wb.Err == nil || !errors.Is(wb.Err, ErrBadParam) {
		t.Fatalf("weibull err = %v, want ErrBadParam", wb.Err)
	}
	if !math.IsInf(wb.NLL, 1) || !math.IsInf(wb.AIC, 1) {
		t.Fatalf("weibull NLL %v AIC %v, want +Inf", wb.NLL, wb.AIC)
	}
	cmp, err := FitAll(xs, FamilyWeibull, FamilyLogNormal)
	if err != nil {
		t.Fatal(err)
	}
	if best, err := cmp.Best(); err != nil || best.Family != FamilyLogNormal {
		t.Fatalf("best = %v (%v), want lognormal", best.Family, err)
	}
}

func TestFitAllEmptyAndUnknownFamily(t *testing.T) {
	if _, err := FitAll(nil); err == nil {
		t.Fatal("empty data: want error")
	}
	if _, err := FitSample(Family(99), NewSample([]float64{1, 2})); err == nil {
		t.Fatal("unknown family: want error")
	}
}

func TestDiscreteNegLogLikelihood(t *testing.T) {
	p, _ := NewPoisson(2)
	nll, err := DiscreteNegLogLikelihood(p, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := -(p.LogPMF(0) + p.LogPMF(1) + p.LogPMF(2))
	if math.Abs(nll-want) > 1e-12 {
		t.Fatalf("NLL = %g, want %g", nll, want)
	}
	nll, err = DiscreteNegLogLikelihood(p, []int{-1})
	if err != nil || !math.IsInf(nll, 1) {
		t.Fatalf("impossible obs: %g, %v", nll, err)
	}
	if _, err := DiscreteNegLogLikelihood(p, nil); err == nil {
		t.Fatal("empty: want error")
	}
}

func TestAIC(t *testing.T) {
	exp, _ := NewExponential(1)
	xs := []float64{1, 2, 3}
	aic, err := AIC(exp, xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aic-(2+12)) > 1e-12 {
		t.Fatalf("AIC = %g, want 14", aic)
	}
}

func TestFamilyString(t *testing.T) {
	names := map[Family]string{
		FamilyExponential: "exponential",
		FamilyWeibull:     "weibull",
		FamilyGamma:       "gamma",
		FamilyLogNormal:   "lognormal",
		FamilyNormal:      "normal",
		FamilyPareto:      "pareto",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%v.String() = %q", f, f.String())
		}
	}
	if Family(0).String() != "family(0)" {
		t.Errorf("unknown family string = %q", Family(0).String())
	}
}

func TestLogNormalMedian(t *testing.T) {
	ln, _ := NewLogNormal(3, 2)
	if math.Abs(ln.Median()-math.Exp(3)) > 1e-12 {
		t.Fatalf("median = %g", ln.Median())
	}
	// Heavy tail: mean far above median, as in Table 2.
	if !(ln.Mean() > 5*ln.Median()) {
		t.Fatalf("mean %g should dwarf median %g", ln.Mean(), ln.Median())
	}
}

func TestParetoInfiniteMoments(t *testing.T) {
	p, _ := NewPareto(1, 0.9)
	if !math.IsInf(p.Mean(), 1) {
		t.Fatal("alpha<1 mean should be +Inf")
	}
	p2, _ := NewPareto(1, 1.5)
	if !math.IsInf(p2.Var(), 1) {
		t.Fatal("alpha<2 variance should be +Inf")
	}
}

func TestFamilyHyperExpDispatch(t *testing.T) {
	src := randx.NewSource(40)
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = src.Exponential(0.2)
	}
	d, err := FitSample(FamilyHyperExp, NewSample(xs))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "hyperexp" {
		t.Fatalf("name = %q", d.Name())
	}
	if FamilyHyperExp.String() != "hyperexp" {
		t.Fatal("family string")
	}
	// FitAll with hyperexp included still works and ranks it.
	cmp, err := FitAll(xs, append(StandardFamilies(), FamilyHyperExp)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cmp.ByFamily(FamilyHyperExp); !ok {
		t.Fatal("hyperexp missing from comparison")
	}
}
