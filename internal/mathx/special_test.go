package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
	if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: got %.15g, want %.15g (tol %g)", msg, got, want, tol)
	}
}

func TestGammaRegPReferenceValues(t *testing.T) {
	// Reference values computed with mpmath (50-digit precision).
	tests := []struct {
		a, x, want float64
	}{
		{1, 1, 0.63212055882855768},      // 1 - e^{-1}
		{1, 2, 0.86466471676338731},      // 1 - e^{-2}
		{0.5, 0.5, 0.68268949213708585},  // erf(sqrt(0.5))
		{2, 3, 0.80085172652854419},      // P(2,3)
		{5, 5, 0.55950671493478743},      // P(5,5)
		{10, 3, 0.0011024881301489198},   // deep lower tail
		{0.7, 3.2, 0.97940084484599970},  // fractional shape
		{3, 0.1, 0.00015465307026470},    // small x
		{100, 100, 0.51329879827913130},  // large a near mean
		{0.1, 1e-6, 0.26403365432792240}, // tiny x, small a
	}
	for _, tc := range tests {
		got, err := GammaRegP(tc.a, tc.x)
		if err != nil {
			t.Fatalf("GammaRegP(%g, %g): %v", tc.a, tc.x, err)
		}
		almostEqual(t, got, tc.want, 1e-11, "GammaRegP")
	}
}

func TestGammaRegPEdgeCases(t *testing.T) {
	if p, err := GammaRegP(2, 0); err != nil || p != 0 {
		t.Fatalf("P(2,0) = %v, %v; want 0, nil", p, err)
	}
	if p, err := GammaRegP(2, math.Inf(1)); err != nil || p != 1 {
		t.Fatalf("P(2,inf) = %v, %v; want 1, nil", p, err)
	}
	for _, bad := range [][2]float64{{0, 1}, {-1, 1}, {1, -1}, {math.NaN(), 1}, {1, math.NaN()}} {
		if _, err := GammaRegP(bad[0], bad[1]); err == nil {
			t.Fatalf("GammaRegP(%g, %g): want domain error", bad[0], bad[1])
		}
	}
}

func TestGammaRegPQComplement(t *testing.T) {
	f := func(aRaw, xRaw float64) bool {
		a := 0.05 + math.Abs(math.Mod(aRaw, 50))
		x := math.Abs(math.Mod(xRaw, 100))
		p, err1 := GammaRegP(a, x)
		q, err2 := GammaRegQ(a, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p+q-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaRegPMonotoneInX(t *testing.T) {
	f := func(aRaw float64) bool {
		a := 0.1 + math.Abs(math.Mod(aRaw, 20))
		prev := -1.0
		for x := 0.0; x < 40; x += 0.5 {
			p, err := GammaRegP(a, x)
			if err != nil || p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 0.78, 1, 2, 5, 17.5, 120} {
		for _, p := range []float64{1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999999} {
			x, err := GammaPInv(a, p)
			if err != nil {
				t.Fatalf("GammaPInv(%g, %g): %v", a, p, err)
			}
			back, err := GammaRegP(a, x)
			if err != nil {
				t.Fatalf("GammaRegP(%g, %g): %v", a, x, err)
			}
			almostEqual(t, back, p, 1e-8, "GammaPInv round trip")
		}
	}
}

func TestGammaPInvEdges(t *testing.T) {
	if x, err := GammaPInv(2, 0); err != nil || x != 0 {
		t.Fatalf("GammaPInv(2, 0) = %v, %v", x, err)
	}
	if x, err := GammaPInv(2, 1); err != nil || !math.IsInf(x, 1) {
		t.Fatalf("GammaPInv(2, 1) = %v, %v", x, err)
	}
	if _, err := GammaPInv(-1, 0.5); err == nil {
		t.Fatal("GammaPInv(-1, 0.5): want error")
	}
	if _, err := GammaPInv(1, 1.5); err == nil {
		t.Fatal("GammaPInv(1, 1.5): want error")
	}
}

func TestDigammaReferenceValues(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{1, -0.57721566490153286},
		{2, 0.42278433509846714},
		{0.5, -1.9635100260214235},
		{10, 2.2517525890667211},
		{0.1, -10.423754940411076},
		{100, 4.6001618527380874},
	}
	for _, tc := range tests {
		got, err := Digamma(tc.x)
		if err != nil {
			t.Fatalf("Digamma(%g): %v", tc.x, err)
		}
		almostEqual(t, got, tc.want, 1e-12, "Digamma")
	}
	if _, err := Digamma(0); err == nil {
		t.Fatal("Digamma(0): want error")
	}
	if _, err := Digamma(-3); err == nil {
		t.Fatal("Digamma(-3): want error")
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x.
	f := func(raw float64) bool {
		x := 0.05 + math.Abs(math.Mod(raw, 30))
		a, err1 := Digamma(x + 1)
		b, err2 := Digamma(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-(b+1/x)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTrigammaReferenceValues(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{1, 1.6449340668482264},   // pi^2/6
		{2, 0.64493406684822644},  // pi^2/6 - 1
		{0.5, 4.9348022005446793}, // pi^2/2
		{10, 0.10516633568168575},
	}
	for _, tc := range tests {
		got, err := Trigamma(tc.x)
		if err != nil {
			t.Fatalf("Trigamma(%g): %v", tc.x, err)
		}
		almostEqual(t, got, tc.want, 1e-11, "Trigamma")
	}
	if _, err := Trigamma(-1); err == nil {
		t.Fatal("Trigamma(-1): want error")
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.001, 0.025, 0.31, 0.5, 0.77, 0.975, 0.999, 1 - 1e-9} {
		z, err := NormQuantile(p)
		if err != nil {
			t.Fatalf("NormQuantile(%g): %v", p, err)
		}
		almostEqual(t, NormCDF(z), p, 1e-10, "NormQuantile round trip")
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	z, err := NormQuantile(0.975)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, z, 1.9599639845400545, 1e-10, "z(0.975)")
	z, err = NormQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z) > 1e-12 {
		t.Fatalf("z(0.5) = %g, want 0", z)
	}
	if zInf, err := NormQuantile(0); err != nil || !math.IsInf(zInf, -1) {
		t.Fatalf("z(0) = %v, %v", zInf, err)
	}
	if zInf, err := NormQuantile(1); err != nil || !math.IsInf(zInf, 1) {
		t.Fatalf("z(1) = %v, %v", zInf, err)
	}
	if _, err := NormQuantile(-0.1); err == nil {
		t.Fatal("z(-0.1): want error")
	}
}

func TestNormCDFSymmetry(t *testing.T) {
	f := func(z float64) bool {
		z = math.Mod(z, 8)
		return math.Abs(NormCDF(z)+NormCDF(-z)-1) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogFactorial(t *testing.T) {
	want := 0.0
	for n := 0; n <= 20; n++ {
		got, err := LogFactorial(n)
		if err != nil {
			t.Fatal(err)
		}
		almostEqual(t, got, want, 1e-12, "LogFactorial")
		want += math.Log(float64(n + 1))
	}
	if _, err := LogFactorial(-1); err == nil {
		t.Fatal("LogFactorial(-1): want error")
	}
}
