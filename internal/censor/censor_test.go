package censor

import (
	"errors"
	"math"
	"testing"

	"hpcfail/internal/randx"
)

func TestFitWeibullCensored(t *testing.T) {
	// Weibull(0.7, 100) with type-I censoring at 150.
	src := randx.NewSource(2)
	const n = 40000
	obs := make([]Observation, n)
	for i := range obs {
		x := src.Weibull(0.7, 100)
		if x > 150 {
			obs[i] = Observation{Time: 150, Censored: true}
		} else {
			obs[i] = Observation{Time: x}
		}
	}
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape()-0.7)/0.7 > 0.05 {
		t.Fatalf("shape = %g, want 0.7", fit.Shape())
	}
	if math.Abs(fit.Scale()-100)/100 > 0.05 {
		t.Fatalf("scale = %g, want 100", fit.Scale())
	}
}

func TestFitWeibullUncensoredMatchesDistFit(t *testing.T) {
	src := randx.NewSource(3)
	obs := make([]Observation, 5000)
	for i := range obs {
		obs[i] = Observation{Time: src.Weibull(1.3, 50)}
	}
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape()-1.3)/1.3 > 0.05 {
		t.Fatalf("shape = %g", fit.Shape())
	}
}

func TestFitErrors(t *testing.T) {
	censoredOnly := []Observation{{Time: 1, Censored: true}, {Time: 2, Censored: true}}
	if _, err := FitWeibull(censoredOnly); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("weibull all censored: want error")
	}
	identical := []Observation{{Time: 5}, {Time: 5}, {Time: 5}}
	if _, err := FitWeibull(identical); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("identical events: want error")
	}
	bad := []Observation{{Time: math.NaN()}}
	if _, err := FitWeibull(bad); err == nil {
		t.Fatal("NaN: want error")
	}
}

func TestNodeLifetimes(t *testing.T) {
	obs, err := NodeLifetimes(0, 100, []float64{10, 30, 30, 70})
	if err != nil {
		t.Fatal(err)
	}
	// Gaps: 10, 20, (0 skipped), 40, then censored 30.
	want := []Observation{
		{Time: 10}, {Time: 20}, {Time: 40}, {Time: 30, Censored: true},
	}
	if len(obs) != len(want) {
		t.Fatalf("obs = %+v", obs)
	}
	for i := range want {
		if obs[i] != want[i] {
			t.Fatalf("obs[%d] = %+v, want %+v", i, obs[i], want[i])
		}
	}
	// No failures: one fully censored interval.
	obs, err = NodeLifetimes(0, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || !obs[0].Censored || obs[0].Time != 50 {
		t.Fatalf("obs = %+v", obs)
	}
	// Errors.
	if _, err := NodeLifetimes(10, 10, nil); err == nil {
		t.Fatal("empty window: want error")
	}
	if _, err := NodeLifetimes(0, 10, []float64{5, 3}); err == nil {
		t.Fatal("out of order: want error")
	}
	if _, err := NodeLifetimes(0, 10, []float64{20}); err == nil {
		t.Fatal("outside window: want error")
	}
}

func TestCensoringBiasDemonstration(t *testing.T) {
	// The practical point of the package: with heavy censoring, dropping
	// censored intervals underestimates MTBF; the censored Weibull fit
	// does not.
	src := randx.NewSource(4)
	const trueMean = 100.0
	shape := 0.7
	scale := trueMean / math.Gamma(1+1/shape)
	var obs []Observation
	var naive []float64
	for i := 0; i < 20000; i++ {
		x := src.Weibull(shape, scale)
		if x > 80 { // short observation window
			obs = append(obs, Observation{Time: 80, Censored: true})
			continue
		}
		obs = append(obs, Observation{Time: x})
		naive = append(naive, x)
	}
	fit, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	var naiveSum float64
	for _, x := range naive {
		naiveSum += x
	}
	naiveMean := naiveSum / float64(len(naive))
	if math.Abs(fit.Mean()-trueMean)/trueMean > 0.1 {
		t.Fatalf("censored fit mean = %g, want ~%g", fit.Mean(), trueMean)
	}
	if naiveMean > 0.6*trueMean {
		t.Fatalf("naive mean %g should be badly biased low", naiveMean)
	}
}
