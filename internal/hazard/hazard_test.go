package hazard

import (
	"errors"
	"math"
	"testing"

	"hpcfail/internal/randx"
)

func TestEmpiricalHazardDirections(t *testing.T) {
	src := randx.NewSource(2)
	const n = 30000

	draw := func(gen func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen()
		}
		return xs
	}

	// Weibull shape 0.7: decreasing hazard (the paper's TBF case).
	dec := draw(func() float64 { return src.Weibull(0.7, 100) })
	est, err := Empirical(dec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Trend(); got != Decreasing {
		t.Errorf("weibull(0.7): trend = %v, want decreasing (rates %v)", got, est.Rates)
	}

	// Weibull shape 2: increasing hazard.
	inc := draw(func() float64 { return src.Weibull(2, 100) })
	est, err = Empirical(inc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Trend(); got != Increasing {
		t.Errorf("weibull(2): trend = %v, want increasing (rates %v)", got, est.Rates)
	}

	// Exponential: flat (no 2:1 majority either way).
	flat := draw(func() float64 { return src.Exponential(0.01) })
	est, err = Empirical(flat, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Trend(); got == Increasing {
		// Flat is ideal; a weak decreasing call can happen by chance, but
		// increasing would be wrong for this seed's data.
		t.Errorf("exponential: trend = %v (rates %v)", got, est.Rates)
	}
}

func TestEmpiricalHazardLevels(t *testing.T) {
	// Exponential hazard level should be ~rate in every bin.
	src := randx.NewSource(3)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = src.Exponential(0.05)
	}
	est, err := Empirical(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for b, r := range est.Rates[:4] { // final bin is tail-noisy
		if math.Abs(r-0.05)/0.05 > 0.15 {
			t.Errorf("bin %d hazard = %g, want ~0.05", b, r)
		}
	}
	// All events accounted for.
	total := 0
	for _, e := range est.Events {
		total += e
	}
	if total != len(xs) {
		t.Fatalf("events %d != n %d", total, len(xs))
	}
}

func TestEmpiricalErrors(t *testing.T) {
	if _, err := Empirical([]float64{1, 2, 3}, 1); err == nil {
		t.Fatal("1 bin: want error")
	}
	if _, err := Empirical([]float64{1, 2, 3}, 4); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("too few lifetimes: want ErrInsufficientData")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i) - 50
	}
	if _, err := Empirical(xs, 4); err == nil {
		t.Fatal("negative lifetimes: want error")
	}
}

func TestEmpiricalWithTies(t *testing.T) {
	// Many identical values force duplicate quantile edges; the estimator
	// must survive.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 5
		if i%10 == 0 {
			xs[i] = float64(i + 1)
		}
	}
	if _, err := Empirical(xs, 4); err != nil {
		t.Fatalf("tied data: %v", err)
	}
}

func TestMeanResidualLife(t *testing.T) {
	src := randx.NewSource(4)
	// Exponential: MRL constant = mean.
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = src.Exponential(0.01)
	}
	m0, err := MeanResidualLife(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	m100, err := MeanResidualLife(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m0-100)/100 > 0.05 || math.Abs(m100-100)/100 > 0.08 {
		t.Fatalf("exponential MRL(0)=%g MRL(100)=%g, want ~100", m0, m100)
	}
	// Weibull shape 0.7: MRL grows with age (decreasing hazard).
	wb := make([]float64, 50000)
	for i := range wb {
		wb[i] = src.Weibull(0.7, 100)
	}
	w0, err := MeanResidualLife(wb, 0)
	if err != nil {
		t.Fatal(err)
	}
	w200, err := MeanResidualLife(wb, 200)
	if err != nil {
		t.Fatal(err)
	}
	if w200 <= w0 {
		t.Fatalf("weibull(0.7) MRL should grow: MRL(0)=%g MRL(200)=%g", w0, w200)
	}
	// Errors.
	if _, err := MeanResidualLife(nil, 0); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("empty: want error")
	}
	if _, err := MeanResidualLife([]float64{1, 2}, 10); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("t beyond sample: want error")
	}
}

func TestDirectionString(t *testing.T) {
	if Decreasing.String() != "decreasing" || Increasing.String() != "increasing" ||
		Flat.String() != "flat" {
		t.Fatal("direction names")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatal("unknown direction name")
	}
}
