package stats

import (
	"math"
	"testing"
)

func TestKolmogorovPValueKnownValues(t *testing.T) {
	// For large n, λ = 1.36 corresponds to p ≈ 0.05 (classic critical
	// value for α = 0.05 at λ = 1.358).
	n := 10000
	d := 1.358 / math.Sqrt(float64(n))
	p, err := KolmogorovPValue(d, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.05) > 0.005 {
		t.Fatalf("p = %g, want ~0.05", p)
	}
	// Tiny statistic: p near 1. Large statistic: p near 0.
	p, err = KolmogorovPValue(0.001, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Fatalf("p for tiny d = %g", p)
	}
	p, err = KolmogorovPValue(0.5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-10 {
		t.Fatalf("p for huge d = %g", p)
	}
	if p, err := KolmogorovPValue(0, 10); err != nil || p != 1 {
		t.Fatalf("d=0: %g, %v", p, err)
	}
}

func TestKolmogorovPValueErrors(t *testing.T) {
	if _, err := KolmogorovPValue(0.1, 0); err == nil {
		t.Fatal("n=0: want error")
	}
	if _, err := KolmogorovPValue(-0.1, 10); err == nil {
		t.Fatal("negative d: want error")
	}
	if _, err := KolmogorovPValue(1.5, 10); err == nil {
		t.Fatal("d>1: want error")
	}
}

func TestKolmogorovPValueMonotone(t *testing.T) {
	prev := 1.1
	for _, d := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		p, err := KolmogorovPValue(d, 200)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("p-value should decrease with d: p(%g) = %g", d, p)
		}
		prev = p
	}
}
