package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Fatalf("median = %g", s.Median)
	}
	// Sample variance of this set is 32/7.
	if math.Abs(s.Variance-32.0/7) > 1e-12 {
		t.Fatalf("variance = %g", s.Variance)
	}
	if math.Abs(s.C2-(32.0/7)/25) > 1e-12 {
		t.Fatalf("C2 = %g", s.C2)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty sample: want error")
	}
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 3 || s.Median != 3 || s.Variance != 0 || s.C2 != 0 {
		t.Fatalf("single-element summary: %+v", s)
	}
}

// Regression: a zero-mean sample used to report C2 = 0, indistinguishable
// from a genuinely zero-variance sample. The undefined case is now NaN.
func TestSummarizeZeroMeanC2Undefined(t *testing.T) {
	s, err := Summarize([]float64{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.C2) {
		t.Fatalf("zero-mean C2 = %g, want NaN", s.C2)
	}
	// A constant nonzero sample genuinely has zero variability: C2 = 0.
	s, err = Summarize([]float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.C2 != 0 {
		t.Fatalf("constant-sample C2 = %g, want 0", s.C2)
	}
	// All-zero sample: variance and mean both zero, still undefined.
	s, err = Summarize([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.C2) {
		t.Fatalf("all-zero C2 = %g, want NaN", s.C2)
	}
}

// Regression: NaN observations used to be sorted arbitrarily, making
// Quantile silently undefined; they are now rejected with ErrNaN, and
// Summarize propagates NaN to every statistic instead of depending on
// sort placement.
func TestNaNHandling(t *testing.T) {
	xs := []float64{1, math.NaN(), 3}
	if _, err := Quantile(xs, 0.5); err != ErrNaN {
		t.Fatalf("Quantile with NaN: err = %v, want ErrNaN", err)
	}
	if _, err := Median(xs); err != ErrNaN {
		t.Fatalf("Median with NaN: err = %v, want ErrNaN", err)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	for name, v := range map[string]float64{
		"mean": s.Mean, "median": s.Median, "variance": s.Variance,
		"stddev": s.StdDev, "c2": s.C2, "min": s.Min, "max": s.Max,
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %g, want NaN", name, v)
		}
	}
}

// Summarize must agree with standalone Quantile on the median while only
// sorting once internally.
func TestSummarizeMedianMatchesQuantile(t *testing.T) {
	seed := uint64(77)
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(seed%97)
		xs := make([]float64, n)
		for i := range xs {
			seed = seed*6364136223846793005 + 1442695040888963407
			xs[i] = float64(int64(seed>>33)%2000-1000) / 7
		}
		s, err := Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		med, err := Quantile(xs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if s.Median != med {
			t.Fatalf("trial %d: Summarize median %g != Quantile %g", trial, s.Median, med)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tc := range tests {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Fatal("q<0: want error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Fatal("q>1: want error")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty: want error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, tc := range tests {
		if got := e.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("ECDF(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
	xs, ps := e.Points()
	if len(xs) != 3 || xs[1] != 2 || ps[1] != 0.75 {
		t.Fatalf("Points = %v, %v", xs, ps)
	}
	if _, err := NewECDF(nil); err == nil {
		t.Fatal("empty ECDF: want error")
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e, err := NewECDF(raw)
		if err != nil {
			return false
		}
		// Monotone and bounded.
		vals := e.sorted
		prev := 0.0
		for _, v := range vals {
			p := e.At(v)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return e.At(vals[len(vals)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKolmogorovSmirnovExactFit(t *testing.T) {
	// ECDF of n uniform order statistics vs the uniform CDF must have
	// KS >= 1/(2n) and the statistic for a perfectly spaced sample is 1/(2n).
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / 100
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	ks := e.KolmogorovSmirnov(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if math.Abs(ks-0.005) > 1e-12 {
		t.Fatalf("KS = %g, want 0.005", ks)
	}
	// A badly wrong CDF should give a large statistic.
	ks = e.KolmogorovSmirnov(func(x float64) float64 { return 0 })
	if ks != 1 {
		t.Fatalf("KS vs constant-0 CDF = %g, want 1", ks)
	}
}

func TestBootstrap(t *testing.T) {
	xs := make([]float64, 500)
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	for i := range xs {
		xs[i] = float64(next(100))
	}
	lo, hi, err := Bootstrap(xs, Mean, 500, 0.95, next)
	if err != nil {
		t.Fatal(err)
	}
	m := Mean(xs)
	if !(lo < m && m < hi) {
		t.Fatalf("mean %g outside bootstrap CI [%g, %g]", m, lo, hi)
	}
	if hi-lo > 20 {
		t.Fatalf("CI [%g, %g] implausibly wide", lo, hi)
	}
	if _, _, err := Bootstrap(nil, Mean, 10, 0.9, next); err == nil {
		t.Fatal("empty bootstrap: want error")
	}
	if _, _, err := Bootstrap(xs, Mean, 0, 0.9, next); err == nil {
		t.Fatal("zero reps: want error")
	}
	if _, _, err := Bootstrap(xs, Mean, 10, 1.5, next); err == nil {
		t.Fatal("bad level: want error")
	}
}

func TestMeanVarianceEdges(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if Variance([]float64{7}) != 0 {
		t.Fatal("Variance of single element should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestAutocorrelation(t *testing.T) {
	// Alternating series: strong negative lag-1, strong positive lag-2.
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	acf, err := Autocorrelation(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] > -0.9 {
		t.Fatalf("lag-1 = %g, want ~-1", acf[0])
	}
	if acf[1] < 0.9 {
		t.Fatalf("lag-2 = %g, want ~1", acf[1])
	}
	// Independent noise: all lags near zero.
	seed := uint64(9)
	noise := make([]float64, 5000)
	for i := range noise {
		seed = seed*6364136223846793005 + 1442695040888963407
		noise[i] = float64(seed>>40) / float64(1<<24)
	}
	acf, err = Autocorrelation(noise, 5)
	if err != nil {
		t.Fatal(err)
	}
	for lag, r := range acf {
		if math.Abs(r) > 0.05 {
			t.Fatalf("noise lag-%d = %g, want ~0", lag+1, r)
		}
	}
	// Errors.
	if _, err := Autocorrelation([]float64{1}, 1); err == nil {
		t.Fatal("too short: want error")
	}
	if _, err := Autocorrelation(xs, 0); err == nil {
		t.Fatal("zero lag: want error")
	}
	if _, err := Autocorrelation(xs, len(xs)); err == nil {
		t.Fatal("lag too large: want error")
	}
	if _, err := Autocorrelation([]float64{3, 3, 3}, 1); err == nil {
		t.Fatal("constant series: want error")
	}
}
