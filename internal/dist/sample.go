package dist

import (
	"math"
	"sort"
	"sync"

	"hpcfail/internal/randx"
	"hpcfail/internal/stats"
)

// xform holds the per-sample transforms every fit kernel consumes. It is the
// precomputed heart of the zero-allocation fit path: each transcendental
// (log x, log max) is evaluated exactly once per observation, and every
// running sum is accumulated in observation order so results are
// bit-identical to the historical slice-walking fitters (math.Log is
// deterministic, and independent accumulators summed in the same order
// produce the same bits).
//
// The log-domain fields (logs, shifted, sumLog, logMax) are only valid when
// positive is true; the raw-domain fields are always valid for n > 0.
type xform struct {
	// xs are the observations in their original order.
	xs []float64
	// logs caches math.Log(xs[i]).
	logs []float64
	// shifted caches logs[i] - logMax, the argument scale the Weibull
	// profile-likelihood score exponentiates at every solver iteration.
	shifted []float64
	// sum is Σ xs[i] and sumLog is Σ logs[i], both accumulated in order.
	sum, sumLog float64
	// min and max are the sample extrema; logMax is math.Log(max).
	min, max, logMax float64
	// allEqual reports xs[i] == xs[0] for every i (the degenerate case the
	// two-parameter fitters must reject).
	allEqual bool
	// finite reports that no observation is NaN or ±Inf; badFin is the
	// first violating index otherwise.
	finite bool
	badFin int
	// positive reports finite and strictly positive throughout; badPos is
	// the first index violating positivity (x <= 0, NaN or ±Inf) otherwise.
	positive bool
	badPos   int
}

// fill recomputes every transform from raw values, reusing t's buffers when
// they are large enough. It never allocates once the buffers have grown to
// the working sample size, which is what keeps the parametric-bootstrap rep
// loop allocation-free.
func (t *xform) fill(xs []float64) {
	n := len(xs)
	t.xs = growFloats(t.xs, n)
	copy(t.xs, xs)
	t.scan()
}

// growFloats returns a slice of length n, reusing buf's storage when
// possible.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// scan derives every aggregate and cache from t.xs. The accumulation order
// of each sum matches the historical fitters exactly.
func (t *xform) scan() {
	n := len(t.xs)
	t.sum, t.sumLog, t.logMax = 0, 0, 0
	t.allEqual, t.finite, t.positive = true, true, true
	t.badFin, t.badPos = -1, -1
	if n == 0 {
		t.min, t.max = math.NaN(), math.NaN()
		t.logs = t.logs[:0]
		t.shifted = t.shifted[:0]
		return
	}
	t.min, t.max = t.xs[0], t.xs[0]
	for i, x := range t.xs {
		t.sum += x
		if x != t.xs[0] {
			t.allEqual = false
		}
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if t.finite {
				t.finite = false
				t.badFin = i
			}
			if t.positive {
				t.positive = false
				t.badPos = i
			}
		} else if x <= 0 && t.positive {
			t.positive = false
			t.badPos = i
		}
	}
	if !t.positive {
		t.logs = t.logs[:0]
		t.shifted = t.shifted[:0]
		return
	}
	t.logs = growFloats(t.logs, n)
	t.shifted = growFloats(t.shifted, n)
	for i, x := range t.xs {
		lg := math.Log(x)
		t.logs[i] = lg
		t.sumLog += lg
	}
	t.logMax = math.Log(t.max)
	for i, lg := range t.logs {
		t.shifted[i] = lg - t.logMax
	}
}

// gather fills t with a with-replacement resample of parent, drawing one
// index per position from src (the exact randx call sequence the historical
// FitCI used). Log values are gathered from the parent's cache instead of
// recomputed — math.Log is deterministic, so the gathered bits equal what a
// fresh evaluation would produce — and the aggregates are re-accumulated in
// resample order, keeping refits bit-identical to refitting the raw slice.
// It never allocates once t's buffers match the parent's size.
func (t *xform) gather(parent *xform, src *randx.Source) {
	n := len(parent.xs)
	t.xs = growFloats(t.xs, n)
	t.sum, t.sumLog, t.logMax = 0, 0, 0
	t.allEqual = true
	t.finite, t.positive = parent.finite, parent.positive
	t.badFin, t.badPos = -1, -1
	if !parent.positive {
		// Raw-domain gather only (e.g. normal-family bootstrap on data
		// containing non-positive values).
		t.logs = t.logs[:0]
		t.shifted = t.shifted[:0]
		for i := range t.xs {
			x := parent.xs[src.Intn(n)]
			t.xs[i] = x
			t.sum += x
			if x != t.xs[0] {
				t.allEqual = false
			}
		}
		t.min, t.max = t.xs[0], t.xs[0]
		for _, x := range t.xs {
			if x < t.min {
				t.min = x
			}
			if x > t.max {
				t.max = x
			}
		}
		return
	}
	t.logs = growFloats(t.logs, n)
	t.shifted = growFloats(t.shifted, n)
	var maxLog float64
	first := true
	for i := range t.xs {
		j := src.Intn(n)
		x := parent.xs[j]
		lg := parent.logs[j]
		t.xs[i] = x
		t.logs[i] = lg
		t.sum += x
		t.sumLog += lg
		if x != t.xs[0] {
			t.allEqual = false
		}
		if first {
			t.min, t.max, maxLog = x, x, lg
			first = false
			continue
		}
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
			maxLog = lg
		}
	}
	// maxLog carries the same bits math.Log(t.max) would: it is the cached
	// log of the element that won the max scan.
	t.logMax = maxLog
	for i, lg := range t.logs {
		t.shifted[i] = lg - t.logMax
	}
}

// Sample is an immutable, precomputed view of one observation vector: the
// values plus every transform the maximum-likelihood fitters, NLL loops and
// bootstrap kernels consume (log cache, Σx, Σ log x, extrema, log max), with
// the sorted order, empirical CDF and FNV-1a identity hash computed lazily
// exactly once. FitSample, FitOne and NewCIPlan take one; the slice entry
// points (FitAll, the FitX fitters, BootstrapKSTest) build one per call.
//
// A Sample is safe for concurrent use by multiple goroutines once
// constructed.
type Sample struct {
	t xform

	hashOnce sync.Once
	hash     uint64

	sortOnce sync.Once
	sorted   []float64

	ecdfOnce sync.Once
	ecdf     *stats.ECDF
	ecdfErr  error
}

// NewSample copies xs and precomputes every fit-kernel transform in two
// passes (one raw-domain, one log-domain when the data is strictly
// positive).
func NewSample(xs []float64) *Sample {
	s := &Sample{}
	s.t.fill(xs)
	return s
}

// NewSamplePrehashed is NewSample with the FNV-1a identity hash supplied by
// the caller, which must equal stats.HashSample(xs). The analysis engine
// uses it to avoid hashing a sample twice when interning slices.
func NewSamplePrehashed(xs []float64, hash uint64) *Sample {
	s := NewSample(xs)
	s.hashOnce.Do(func() { s.hash = hash })
	return s
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.t.xs) }

// Min and Max return the sample extrema.
func (s *Sample) Min() float64 { return s.t.min }

// Max returns the sample maximum.
func (s *Sample) Max() float64 { return s.t.max }

// Hash returns the sample's FNV-1a identity hash (stats.HashSample of the
// values), computed once. The analysis engine keys its per-call fit
// table and its bootstrap seeds on it.
func (s *Sample) Hash() uint64 {
	s.hashOnce.Do(func() { s.hash = stats.HashSample(s.t.xs) })
	return s.hash
}

// Sorted returns the observations in ascending order, computed once. The
// slice is shared storage: callers must not mutate it.
func (s *Sample) Sorted() []float64 {
	s.sortOnce.Do(func() {
		s.sorted = make([]float64, len(s.t.xs))
		copy(s.sorted, s.t.xs)
		sort.Float64s(s.sorted)
	})
	return s.sorted
}

// ECDF returns the sample's empirical CDF, built once over the shared
// sorted view.
func (s *Sample) ECDF() (*stats.ECDF, error) {
	s.ecdfOnce.Do(func() {
		s.ecdf, s.ecdfErr = stats.NewECDFFromSorted(s.Sorted())
	})
	return s.ecdf, s.ecdfErr
}
