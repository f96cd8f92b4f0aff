// Package streamstats provides one-pass, bounded-memory statistics for
// out-of-core failure traces: Welford online moments, a relative-error
// quantile sketch, and seeded reservoir sampling to feed the existing
// MLE fitters from a bounded subsample. Every structure has a versioned
// binary snapshot, and Accumulator.Clone copies all three, so a restored
// or copied accumulator answers and continues exactly as the original.
//
// Accuracy contract, relative to the in-memory stats package on the same
// sample:
//
//   - Moments: N, Min, Max are exact; Mean, Variance, StdDev and C2 agree
//     up to floating-point reassociation (Welford updates).
//   - QuantileSketch: any quantile of a positive sample is within a
//     factor (1 ± eps) of some value between the neighboring order
//     statistics of the exact type-7 quantile rank.
//   - Reservoir: a uniform random subsample of fixed capacity, seeded and
//     deterministic, suitable for distribution fitting when the full
//     sample cannot be held.
//
// NaN observations propagate explicitly: moments and quantiles of a
// sample that contained NaN are NaN, mirroring stats.Summarize.
package streamstats

import "math"

// Moments accumulates count, mean, variance and extrema in one pass with
// O(1) memory using Welford's algorithm. The zero value is an empty
// accumulator ready for use.
type Moments struct {
	n      uint64
	mean   float64
	m2     float64
	min    float64
	max    float64
	hasNaN bool
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	if math.IsNaN(x) {
		m.hasNaN = true
	}
	m.n++
	if m.n == 1 {
		m.mean, m.min, m.max = x, x, x
		return
	}
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
	if x < m.min {
		m.min = x
	}
	if x > m.max {
		m.max = x
	}
}

// N returns the observation count.
func (m *Moments) N() int { return int(m.n) }

// Mean returns the running mean, or NaN for an empty accumulator.
func (m *Moments) Mean() float64 {
	if m.n == 0 || m.hasNaN {
		return math.NaN()
	}
	return m.mean
}

// Variance returns the unbiased sample variance; 0 for fewer than two
// observations, matching stats.Variance.
func (m *Moments) Variance() float64 {
	if m.hasNaN {
		return math.NaN()
	}
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// C2 returns the squared coefficient of variation Var/Mean². A zero mean
// leaves C2 undefined, so it returns NaN — the same contract as
// stats.Summarize.
func (m *Moments) C2() float64 {
	mean := m.Mean()
	if mean == 0 || math.IsNaN(mean) {
		return math.NaN()
	}
	return m.Variance() / (mean * mean)
}

// Min returns the smallest observation, or NaN when empty or when the
// sample contained NaN.
func (m *Moments) Min() float64 {
	if m.n == 0 || m.hasNaN {
		return math.NaN()
	}
	return m.min
}

// Max returns the largest observation, or NaN when empty or when the
// sample contained NaN.
func (m *Moments) Max() float64 {
	if m.n == 0 || m.hasNaN {
		return math.NaN()
	}
	return m.max
}
