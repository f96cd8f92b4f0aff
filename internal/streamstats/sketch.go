package streamstats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmptySketch is returned when a quantile of an empty sketch is taken.
var ErrEmptySketch = errors.New("streamstats: empty sketch")

// ErrNaNSketch is returned when a quantile is taken from a sketch that
// absorbed NaN observations: order statistics are undefined there.
var ErrNaNSketch = errors.New("streamstats: sketch contains NaN observations")

// QuantileSketch is a mergeable, bounded-memory quantile estimator in the
// style of DDSketch: values are counted in geometrically spaced buckets,
// so any reported quantile of a finite nonzero sample is within a factor
// (1 ± eps) of a true sample value at the queried rank. Zeros, negative
// values and ±Inf are tracked exactly in dedicated counters. Construct
// with NewQuantileSketch.
type QuantileSketch struct {
	eps     float64
	lnGamma float64
	gamma   float64
	// minKey and maxKey bound the bucket index range: outside it the
	// representative value would underflow to 0 or overflow past
	// MaxFloat64, and unclamped subnormal inputs would mint tens of
	// thousands of distinct map keys. Magnitudes beyond the range
	// collapse into the edge buckets instead.
	minKey int
	maxKey int
	// slack is 2^-46/lnGamma, bucket's edge margin per unit of |f|.
	slack  float64
	pos    map[int]uint64
	neg    map[int]uint64
	zero   uint64
	posInf uint64
	negInf uint64
	nan    uint64
	n      uint64
}

// DefaultSketchEpsilon is the relative accuracy used when
// NewQuantileSketch is given a non-positive epsilon: 1% relative error.
const DefaultSketchEpsilon = 0.01

// NewQuantileSketch builds a sketch with the given relative accuracy
// eps in (0, 1); eps <= 0 uses DefaultSketchEpsilon.
func NewQuantileSketch(eps float64) (*QuantileSketch, error) {
	if eps <= 0 {
		eps = DefaultSketchEpsilon
	}
	if eps >= 1 || math.IsNaN(eps) {
		return nil, fmt.Errorf("streamstats: sketch epsilon %g outside (0, 1)", eps)
	}
	gamma := (1 + eps) / (1 - eps)
	lnGamma := math.Log(gamma)
	// Smallest key whose representative stays a positive normal float
	// (gamma^k >= 2^-1022), largest whose representative's 2*gamma^k
	// numerator stays finite (gamma^k <= MaxFloat64/2).
	minKey := int(math.Ceil(math.Log(0x1p-1022) / lnGamma))
	maxKey := int(math.Floor(math.Log(math.MaxFloat64/2) / lnGamma))
	return &QuantileSketch{
		eps:     eps,
		gamma:   gamma,
		lnGamma: lnGamma,
		minKey:  minKey,
		maxKey:  maxKey,
		slack:   0x1p-46 / lnGamma,
		pos:     make(map[int]uint64),
		neg:     make(map[int]uint64),
	}, nil
}

// Epsilon returns the sketch's relative accuracy.
func (s *QuantileSketch) Epsilon() float64 { return s.eps }

// N returns the number of observations absorbed, NaN included.
func (s *QuantileSketch) N() int { return int(s.n) }

// bucket returns the geometric bucket index of a positive finite value:
// the k with x in (gamma^(k-1), gamma^k], clamped to [minKey, maxKey].
func (s *QuantileSketch) bucket(x float64) int {
	f := math.Log(x) / s.lnGamma
	c := math.Ceil(f)
	k := int(c)
	// The log division carries rounding error, and Pow is off from the
	// exact gamma^k by up to ~|k|/2 ulps (repeated squaring), so an
	// estimate near a bucket edge can land one bucket off. Within a margin
	// m of either edge, settle against the Pow edges, which define the
	// buckets; farther out both edges agree with ceil(f), so Pow is
	// skipped. In x, m is a relative distance of (1+|f|)*2^-46, about
	// 128(1+|k|) ulps, hence the 1/lnGamma in slack. A NaN f fails both
	// compares and settles.
	if m := (1 + math.Abs(f)) * s.slack; !(c-f > m && f-(c-1) > m) {
		if math.Pow(s.gamma, float64(k)) < x {
			k++
		} else if math.Pow(s.gamma, float64(k-1)) >= x {
			k--
		}
	}
	if k < s.minKey {
		return s.minKey
	}
	if k > s.maxKey {
		return s.maxKey
	}
	return k
}

// value returns the representative value of a bucket: the midpoint of
// (gamma^(k-1), gamma^k], within eps relative error of everything in it.
func (s *QuantileSketch) value(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add folds one observation into the sketch.
func (s *QuantileSketch) Add(x float64) {
	s.n++
	switch {
	case math.IsNaN(x):
		s.nan++
	case math.IsInf(x, 1):
		s.posInf++
	case math.IsInf(x, -1):
		s.negInf++
	case x == 0:
		s.zero++
	case x > 0:
		s.pos[s.bucket(x)]++
	default:
		s.neg[s.bucket(-x)]++
	}
}

// Merge folds another sketch into s. Both sketches must have been built
// with the same epsilon, or the accuracy guarantee would silently change.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if s.eps != o.eps {
		return fmt.Errorf("streamstats: merge sketches with eps %g and %g", s.eps, o.eps)
	}
	for k, c := range o.pos {
		s.pos[k] += c
	}
	for k, c := range o.neg {
		s.neg[k] += c
	}
	s.zero += o.zero
	s.posInf += o.posInf
	s.negInf += o.negInf
	s.nan += o.nan
	s.n += o.n
	return nil
}

// Quantile returns the estimated q-th quantile (0 <= q <= 1) of the
// absorbed sample. The estimate is the representative value of the bucket
// holding the order statistic of rank round(q*(n-1)), so for finite
// nonzero samples it is within eps relative error of a true sample value
// at that rank. NaN observations make every quantile undefined
// (ErrNaNSketch), mirroring stats.Quantile's NaN rejection.
func (s *QuantileSketch) Quantile(q float64) (float64, error) {
	if s.n == 0 {
		return math.NaN(), ErrEmptySketch
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN(), fmt.Errorf("streamstats: quantile %g outside [0, 1]", q)
	}
	if s.nan > 0 {
		return math.NaN(), ErrNaNSketch
	}
	// Target rank in ascending order, matching the anchor rank of the
	// type-7 quantile definition used by stats.Quantile.
	rank := uint64(math.Round(q * float64(s.n-1)))
	var seen uint64

	// Ascending value order: -Inf, negatives (large magnitude first),
	// zero, positives (small magnitude first), +Inf.
	if s.negInf > 0 {
		seen += s.negInf
		if rank < seen {
			return math.Inf(-1), nil
		}
	}
	for _, k := range s.sortedKeys(s.neg, true) {
		seen += s.neg[k]
		if rank < seen {
			return -s.value(k), nil
		}
	}
	if s.zero > 0 {
		seen += s.zero
		if rank < seen {
			return 0, nil
		}
	}
	for _, k := range s.sortedKeys(s.pos, false) {
		seen += s.pos[k]
		if rank < seen {
			return s.value(k), nil
		}
	}
	return math.Inf(1), nil
}

// Median returns the estimated 0.5 quantile.
func (s *QuantileSketch) Median() (float64, error) { return s.Quantile(0.5) }

// sortedKeys returns the bucket indices of one sign's map, descending for
// the negative half (so iteration is in ascending value order).
func (s *QuantileSketch) sortedKeys(m map[int]uint64, descending bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if descending {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	return keys
}
