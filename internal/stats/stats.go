// Package stats provides the descriptive statistics and empirical
// distribution machinery used by the failure analyses: means, medians,
// squared coefficient of variation (the paper's variability metric),
// empirical CDFs, goodness-of-fit statistics and bootstrap confidence
// intervals.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by routines that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrNaN is returned by order-statistic routines given a sample containing
// NaN: sorting NaNs has no defined order, so any quantile of such a sample
// is meaningless and is rejected rather than silently arbitrary.
var ErrNaN = errors.New("stats: sample contains NaN")

// ContainsNaN reports whether xs contains a NaN observation — the
// condition under which Quantile rejects and Summarize propagates NaN.
func ContainsNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Summary holds the descriptive statistics the paper reports for a sample
// (Section 3: mean, median and squared coefficient of variation C²).
type Summary struct {
	N        int
	Mean     float64
	Median   float64
	StdDev   float64
	Variance float64
	// C2 is the squared coefficient of variation: Var / Mean². The paper
	// prefers it to raw variance because it is normalized by the mean.
	C2  float64
	Min float64
	Max float64
}

// Summarize computes a Summary of xs. A sample containing NaN yields NaN
// for every statistic — propagated explicitly rather than left to sort
// order. A zero mean leaves C² (Var/Mean²) undefined, so it is NaN; a
// genuinely zero-variance sample with nonzero mean has C² = 0.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	if ContainsNaN(xs) {
		nan := math.NaN()
		return Summary{
			N: len(xs), Mean: nan, Median: nan, StdDev: nan,
			Variance: nan, C2: nan, Min: nan, Max: nan,
		}, nil
	}
	// One sorted copy serves the median and both extrema; the previous
	// implementation paid a second O(n log n) sort inside Quantile.
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s := Summary{N: len(xs), Min: sorted[0], Max: sorted[len(sorted)-1]}
	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(len(xs))
	if len(xs) > 1 {
		for _, x := range xs {
			d := x - s.Mean
			s.Variance += d * d
		}
		s.Variance /= float64(len(xs) - 1)
	}
	s.StdDev = math.Sqrt(s.Variance)
	if s.Mean != 0 {
		s.C2 = s.Variance / (s.Mean * s.Mean)
	} else {
		s.C2 = math.NaN()
	}
	s.Median = quantileSorted(sorted, 0.5)
	return s, nil
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7, the R default). A sample
// containing NaN is rejected with ErrNaN: sort.Float64s places NaNs
// arbitrarily, which previously made the result silently undefined.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN(), fmt.Errorf("stats: quantile %g outside [0, 1]", q)
	}
	if ContainsNaN(xs) {
		return math.NaN(), ErrNaN
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted,
// NaN-free, non-empty sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function built from a sample.
// The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input slice is copied.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// NewECDFFromSorted builds an ECDF directly over an already-sorted slice
// without copying or re-sorting it. The caller must not mutate the slice
// afterwards and must guarantee ascending order; dist.Sample uses this to
// share one sorted view between the ECDF and the fit kernels.
func NewECDFFromSorted(sorted []float64) (*ECDF, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	return &ECDF{sorted: sorted}, nil
}

// At returns the fraction of the sample that is <= x.
func (e *ECDF) At(x float64) float64 {
	// First index with value > x.
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(idx) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Points returns (x, F(x)) pairs for every distinct sample value, suitable
// for plotting the empirical CDF as a step function evaluated at the steps.
func (e *ECDF) Points() (xs, ps []float64) {
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); i++ {
		if i+1 < len(e.sorted) && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(i+1)/n)
	}
	return xs, ps
}

// KolmogorovSmirnov returns the KS statistic sup |F_n(x) - F(x)| between the
// ECDF and a theoretical CDF.
func (e *ECDF) KolmogorovSmirnov(cdf func(float64) float64) float64 {
	n := float64(len(e.sorted))
	maxDiff := 0.0
	for i, x := range e.sorted {
		f := cdf(x)
		// Compare against both the pre- and post-step value of the ECDF.
		dPlus := math.Abs(float64(i+1)/n - f)
		dMinus := math.Abs(f - float64(i)/n)
		if dPlus > maxDiff {
			maxDiff = dPlus
		}
		if dMinus > maxDiff {
			maxDiff = dMinus
		}
	}
	return maxDiff
}

// Bootstrap computes a percentile bootstrap confidence interval for a
// statistic at the given confidence level, using reps resamples driven by
// the provided uniform-int source (rand func(n int) int).
func Bootstrap(xs []float64, stat func([]float64) float64, reps int, level float64, intn func(int) int) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), ErrEmpty
	}
	if reps <= 0 || level <= 0 || level >= 1 {
		return math.NaN(), math.NaN(), fmt.Errorf("stats: invalid bootstrap config reps=%d level=%g", reps, level)
	}
	estimates := make([]float64, reps)
	resample := make([]float64, len(xs))
	for r := 0; r < reps; r++ {
		for i := range resample {
			resample[i] = xs[intn(len(xs))]
		}
		estimates[r] = stat(resample)
	}
	alpha := (1 - level) / 2
	lo, err = Quantile(estimates, alpha)
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	hi, err = Quantile(estimates, 1-alpha)
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	return lo, hi, nil
}

// Autocorrelation returns the sample autocorrelation of xs at lags
// 1..maxLag. Near-zero values at all lags support the renewal (independent
// interarrival) assumption behind the paper's TBF distribution fitting.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	if len(xs) < 2 {
		return nil, ErrEmpty
	}
	if maxLag < 1 || maxLag >= len(xs) {
		return nil, fmt.Errorf("stats: max lag %d outside [1, %d)", maxLag, len(xs))
	}
	mean := Mean(xs)
	var denom float64
	for _, x := range xs {
		d := x - mean
		denom += d * d
	}
	if denom == 0 {
		return nil, fmt.Errorf("stats: constant series has no autocorrelation")
	}
	out := make([]float64, maxLag)
	for lag := 1; lag <= maxLag; lag++ {
		var num float64
		for i := lag; i < len(xs); i++ {
			num += (xs[i] - mean) * (xs[i-lag] - mean)
		}
		out[lag-1] = num / denom
	}
	return out, nil
}
