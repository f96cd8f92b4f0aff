package dist

import (
	"errors"
	"testing"

	"hpcfail/internal/randx"
)

func TestBootstrapKSAcceptsTrueFamily(t *testing.T) {
	// Weibull data tested against the Weibull family: p should not be
	// tiny (the model is correct).
	src := randx.NewSource(31)
	truth, err := NewWeibull(0.75, 200)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	res, err := BootstrapKSTest(FamilyWeibull, xs, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.02 {
		t.Fatalf("true family rejected: p = %g (KS %g)", res.P, res.KS)
	}
	if res.Replications < 100 {
		t.Fatalf("replications = %d", res.Replications)
	}
	if res.Family != FamilyWeibull || res.Dist == nil {
		t.Fatal("result metadata")
	}
}

func TestBootstrapKSRejectsWrongFamily(t *testing.T) {
	// The same Weibull(0.75) data tested against the exponential: the
	// paper's core statistical claim, now with a p-value.
	src := randx.NewSource(32)
	truth, err := NewWeibull(0.75, 200)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	res, err := BootstrapKSTest(FamilyExponential, xs, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Fatalf("exponential not rejected: p = %g (KS %g)", res.P, res.KS)
	}
}

func TestBootstrapKSErrors(t *testing.T) {
	if _, err := BootstrapKSTest(FamilyWeibull, []float64{1, 2}, 10, 1); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("too few: want error")
	}
	if _, err := BootstrapKSTest(Family(99), []float64{1, 2, 3, 4, 5, 6}, 10, 1); err == nil {
		t.Fatal("unknown family: want error")
	}
	// Data outside the family's support.
	if _, err := BootstrapKSTest(FamilyLogNormal, []float64{-1, 1, 2, 3, 4, 5}, 10, 1); err == nil {
		t.Fatal("unsupported data: want error")
	}
}

func TestBootstrapKSDefaultReps(t *testing.T) {
	src := randx.NewSource(33)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = src.Exponential(0.5)
	}
	res, err := BootstrapKSTest(FamilyExponential, xs, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 200 {
		t.Fatalf("default replications = %d, want 200", res.Replications)
	}
}

func TestWeibullCICoversTruth(t *testing.T) {
	src := randx.NewSource(41)
	truth, err := NewWeibull(0.75, 300)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = truth.Rand(src)
	}
	fitted, cis, err := FitCISample(FamilyWeibull, NewSample(xs), 150, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	fit, ok := fitted.(Weibull)
	if !ok {
		t.Fatalf("fit type %T, want Weibull", fitted)
	}
	if len(cis) != 2 || cis[0].Name != "shape" || cis[1].Name != "scale" {
		t.Fatalf("cis = %+v", cis)
	}
	shape := cis[0]
	if !(shape.Lo <= 0.75 && 0.75 <= shape.Hi) {
		t.Fatalf("shape CI [%g, %g] misses truth 0.75", shape.Lo, shape.Hi)
	}
	if !(shape.Lo <= shape.Estimate && shape.Estimate <= shape.Hi) {
		t.Fatalf("estimate %g outside its own CI [%g, %g]", shape.Estimate, shape.Lo, shape.Hi)
	}
	// The interval should be tight at n=2000.
	if shape.Hi-shape.Lo > 0.15 {
		t.Fatalf("shape CI [%g, %g] too wide", shape.Lo, shape.Hi)
	}
	if fit.Shape() != shape.Estimate {
		t.Fatal("estimate should equal the original fit")
	}
}

func TestWeibullCIErrors(t *testing.T) {
	if _, _, err := FitCISample(FamilyWeibull, NewSample([]float64{1, 2, 3}), 10, 1.5, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("bad level: want error")
	}
	if _, _, err := FitCISample(FamilyWeibull, NewSample([]float64{1}), 10, 0.9, 1); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("too few: want error")
	}
}
