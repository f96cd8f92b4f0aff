package streamstats

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySketch is returned when a quantile of an empty sketch is taken.
var ErrEmptySketch = errors.New("streamstats: empty sketch")

// ErrNaNSketch is returned when a quantile is taken from a sketch that
// absorbed NaN observations: order statistics are undefined there.
var ErrNaNSketch = errors.New("streamstats: sketch contains NaN observations")

// QuantileSketch is a bounded-memory quantile estimator in the
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
	// thousands of distinct bucket keys. Magnitudes beyond the range
	// collapse into the edge buckets instead.
	minKey int
	maxKey int
	// slack is 2^-46/lnGamma, slowBucket's edge margin per unit of |f|.
	slack float64
	// logSlack is 2^-40/lnGamma: fastLog's error bound, per unit of
	// 1+|ln x|, in bucket-index units.
	logSlack float64
	pos      bucketCounts
	neg      bucketCounts
	zero     uint64
	posInf   uint64
	negInf   uint64
	nan      uint64
	n        uint64
}

// DefaultSketchEpsilon is the relative accuracy used when
// NewQuantileSketch is given a non-positive epsilon: 1% relative error.
const DefaultSketchEpsilon = 0.01

// MinSketchEpsilon is the finest relative accuracy NewQuantileSketch
// accepts. Below about 3e-7 the Pow-defined bucket edges drift from the
// exact gamma^k by enough that a representative can miss its value by
// more than eps.
const MinSketchEpsilon = 1e-6

// NewQuantileSketch builds a sketch with the given relative accuracy
// eps in [MinSketchEpsilon, 1); eps <= 0 uses DefaultSketchEpsilon.
func NewQuantileSketch(eps float64) (*QuantileSketch, error) {
	if eps <= 0 {
		eps = DefaultSketchEpsilon
	}
	if !(eps >= MinSketchEpsilon && eps < 1) {
		return nil, fmt.Errorf("streamstats: sketch epsilon %g outside [%g, 1)", eps, MinSketchEpsilon)
	}
	return newSketch(eps), nil
}

// newSketch derives a sketch's bucket geometry from eps without checking
// it against the accepted range.
func newSketch(eps float64) *QuantileSketch {
	gamma := (1 + eps) / (1 - eps)
	lnGamma := math.Log(gamma)
	// Smallest key whose representative stays a positive normal float
	// (gamma^k >= 2^-1022), largest whose representative's 2*gamma^k
	// numerator stays finite (gamma^k <= MaxFloat64/2).
	minKey := int(math.Ceil(math.Log(0x1p-1022) / lnGamma))
	maxKey := int(math.Floor(math.Log(math.MaxFloat64/2) / lnGamma))
	return &QuantileSketch{
		eps:      eps,
		gamma:    gamma,
		lnGamma:  lnGamma,
		minKey:   minKey,
		maxKey:   maxKey,
		slack:    0x1p-46 / lnGamma,
		logSlack: 0x1p-40 / lnGamma,
	}
}

// Epsilon returns the sketch's relative accuracy.
func (s *QuantileSketch) Epsilon() float64 { return s.eps }

// N returns the number of observations absorbed, NaN included.
func (s *QuantileSketch) N() int { return int(s.n) }

// bucket returns the geometric bucket index of a positive finite value:
// the k with x in (gamma^(k-1), gamma^k], clamped to [minKey, maxKey].
//
// It estimates slowBucket's f = ln x / lnGamma as g from fastLog, whose
// error in index units is at most d = (1+|ln x|)*logSlack, and returns
// ceil(g) when g is farther than slowBucket's margin plus d from both
// ceil(g) and ceil(g)-1. Then f lies in the same bucket interval and
// farther than its own margin from both edges, where slowBucket returns
// ceil(f) without settling, so the key is slowBucket's. Every other
// value (subnormals, values near an edge, and any value at an eps so
// small that the margin spans a bucket) takes slowBucket itself.
func (s *QuantileSketch) bucket(x float64) int {
	if x >= 0x1p-1022 && x <= math.MaxFloat64 {
		lx := fastLog(x)
		g := lx / s.lnGamma
		c := math.Ceil(g)
		d := (1 + math.Abs(lx)) * s.logSlack
		// slowBucket's margin at any f within d of g, plus d.
		if m := (1+math.Abs(g)+d)*s.slack + d; c-g > m && g-(c-1) > m {
			return s.clamp(int(c))
		}
	}
	return s.slowBucket(x)
}

// clamp limits a bucket index to [minKey, maxKey].
func (s *QuantileSketch) clamp(k int) int {
	if k < s.minKey {
		return s.minKey
	}
	if k > s.maxKey {
		return s.maxKey
	}
	return k
}

// slowBucket is bucket's exact fallback: math.Log for the estimate and
// the Pow settle near an edge.
func (s *QuantileSketch) slowBucket(x float64) int {
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

// Key is one observation classified for a quantile sketch: the counter
// it lands in and, for a finite nonzero value, its bucket index under the
// geometry of the sketch that keyed it. Computing a key is the costly
// half of an add; applying one is a counter increment. So a value folded
// into several sketches with the same epsilon is keyed once and applied
// to each (Accumulator.Key, Accumulator.AddKeyed).
type Key struct {
	x      float64
	gamma  float64 // the keying sketch's bucket ratio
	bucket int
	kind   keyKind
}

// keyKind names the counter an observation lands in.
type keyKind uint8

const (
	keyNaN keyKind = iota
	keyPosInf
	keyNegInf
	keyZero
	keyPos
	keyNeg
)

// key classifies x and, for a finite nonzero x, buckets its magnitude.
func (s *QuantileSketch) key(x float64) Key {
	k := Key{x: x, gamma: s.gamma}
	switch {
	case math.IsNaN(x):
		k.kind = keyNaN
	case math.IsInf(x, 1):
		k.kind = keyPosInf
	case math.IsInf(x, -1):
		k.kind = keyNegInf
	case x == 0:
		k.kind = keyZero
	case x > 0:
		k.kind, k.bucket = keyPos, s.bucket(x)
	default:
		k.kind, k.bucket = keyNeg, s.bucket(-x)
	}
	return k
}

// Add folds one observation into the sketch.
func (s *QuantileSketch) Add(x float64) { s.addKey(s.key(x)) }

// addKey folds the observation k was computed for. Every bucket index is
// a function of x and gamma alone, so a key from a sketch with the same
// gamma is this sketch's own; a key from any other geometry (or the zero
// Key) is recomputed here from its value.
func (s *QuantileSketch) addKey(k Key) {
	if k.gamma != s.gamma {
		k = s.key(k.x)
	}
	s.n++
	switch k.kind {
	case keyNaN:
		s.nan++
	case keyPosInf:
		s.posInf++
	case keyNegInf:
		s.negInf++
	case keyZero:
		s.zero++
	case keyPos:
		s.pos.add(k.bucket)
	default:
		s.neg.add(k.bucket)
	}
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
	found, at := false, 0
	find := func(k int, c uint64) bool {
		seen += c
		found, at = rank < seen, k
		return !found
	}

	// Ascending value order: -Inf, negatives (large magnitude first),
	// zero, positives (small magnitude first), +Inf.
	if s.negInf > 0 {
		seen += s.negInf
		if rank < seen {
			return math.Inf(-1), nil
		}
	}
	if s.neg.each(true, find); found {
		return -s.value(at), nil
	}
	if s.zero > 0 {
		seen += s.zero
		if rank < seen {
			return 0, nil
		}
	}
	if s.pos.each(false, find); found {
		return s.value(at), nil
	}
	return math.Inf(1), nil
}

// Median returns the estimated 0.5 quantile.
func (s *QuantileSketch) Median() (float64, error) { return s.Quantile(0.5) }

// ln2Hi + ln2Lo is ln 2 split as in math.Log: ln2Hi has its low 21
// mantissa bits clear, so e*ln2Hi is exact for every float64 exponent e.
const (
	ln2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
	ln2Lo = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
)

// logTable[j] is ln(1 + j/256) and invTable[j] is 1/(1 + j/256).
var logTable, invTable = func() (lt, it [256]float64) {
	for j := range lt {
		lt[j] = math.Log1p(float64(j) / 256)
		it[j] = 1 / (1 + float64(j)/256)
	}
	return lt, it
}()

// fastLog returns ln x for a positive normal float64 x, to within
// 2^-40*(1+|ln x|); tests measure under 6e-16*(1+|ln x|). x = 2^e * m with
// m in [1, 2), c = 1 + j/256 is m truncated to 8 fraction bits, and
// ln x = e*ln 2 + ln c + log1p(r) for r = (m-c)/c in [0, 2^-8), where
// the degree-5 Taylor polynomial of log1p is off by under r^6/6 < 6e-16.
func fastLog(x float64) float64 {
	b := math.Float64bits(x)
	e := float64(int(b>>52) - 1023)
	j := b >> 44 & 0xff
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	c := math.Float64frombits(b&(0xff<<44) | 1023<<52)
	r := (m - c) * invTable[j] // m-c is exact: c is m's leading bits
	p := r * (1 + r*(-1.0/2+r*(1.0/3+r*(-1.0/4+r*(1.0/5)))))
	return e*ln2Hi + (logTable[j] + (p + e*ln2Lo))
}
