package mathx

import (
	"errors"
	"math"
	"testing"
)

func TestBrent(t *testing.T) {
	tests := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 1, 2, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"expm1", func(x float64) float64 { return math.Exp(x) - 10 }, 0, 5, math.Log(10)},
	}
	for _, tc := range tests {
		root, err := Brent(tc.f, tc.a, tc.b, 1e-13)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		almostEqual(t, root, tc.want, 1e-9, "brent "+tc.name)
	}
	if _, err := Brent(func(x float64) float64 { return 1 }, 0, 1, 1e-9); !errors.Is(err, ErrBracket) {
		t.Fatalf("want ErrBracket, got %v", err)
	}
}

func TestFindBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	a, b, err := FindBracket(f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(f(a)) == math.Signbit(f(b)) {
		t.Fatalf("interval [%g, %g] does not bracket", a, b)
	}
	if _, _, err := FindBracket(f, 2, 1); err == nil {
		t.Fatal("inverted interval: want error")
	}
	if _, _, err := FindBracket(func(x float64) float64 { return 1 + x*x }, -1, 1); err == nil {
		t.Fatal("positive function: want error")
	}
}

func TestNewtonBounded(t *testing.T) {
	// Solve ln(x) = 1 within (0, 10).
	root, err := NewtonBounded(
		func(x float64) float64 { return math.Log(x) - 1 },
		func(x float64) float64 { return 1 / x },
		2, 0, 10, 1e-13,
	)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, root, math.E, 1e-10, "newton ln(x)=1")

	if _, err := NewtonBounded(
		func(x float64) float64 { return 1 },
		func(x float64) float64 { return 0 },
		1, 0, 2, 1e-9,
	); err == nil {
		t.Fatal("zero derivative: want error")
	}
}

func TestGoldenSection(t *testing.T) {
	min, err := GoldenSection(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, min, 3, 1e-7, "golden section quadratic")
	if _, err := GoldenSection(func(x float64) float64 { return x }, 5, 1, 1e-9); err == nil {
		t.Fatal("inverted interval: want error")
	}
}

func TestNelderMead(t *testing.T) {
	// Rosenbrock function; minimum at (1, 1).
	rosen := func(v []float64) float64 {
		x, y := v[0], v[1]
		return 100*(y-x*x)*(y-x*x) + (1-x)*(1-x)
	}
	pt, val, err := NelderMead(rosen, []float64{-1.2, 1}, 0.5, 1e-14, 6000)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, pt[0], 1, 1e-3, "rosenbrock x")
	almostEqual(t, pt[1], 1, 1e-3, "rosenbrock y")
	if val > 1e-6 {
		t.Fatalf("rosenbrock value %g too large", val)
	}

	// 1-D quadratic through NelderMead.
	pt, _, err = NelderMead(func(v []float64) float64 { return (v[0] + 4) * (v[0] + 4) }, []float64{10}, 1, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, pt[0], -4, 1e-4, "1-D quadratic")

	if _, _, err := NelderMead(rosen, nil, 1, 1e-9, 10); err == nil {
		t.Fatal("empty start: want error")
	}
}

func TestSimpson(t *testing.T) {
	// ∫₀^π sin = 2.
	got, err := Simpson(math.Sin, 0, math.Pi, 1000)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, got, 2, 1e-10, "simpson sin")
	// Polynomial exact for Simpson: ∫₀¹ x³ = 1/4 with any even n.
	got, err = Simpson(func(x float64) float64 { return x * x * x }, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, got, 0.25, 1e-12, "simpson cubic")
	// Odd n is rounded up, tiny n clamped.
	if _, err := Simpson(math.Sin, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Simpson(math.Sin, 1, 1, 10); err == nil {
		t.Fatal("empty interval: want error")
	}
}
