package streamstats

import (
	"errors"
	"fmt"
	"math"
	"sync"
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
	// table is bucket's cell table for this geometry, shared by every
	// sketch of the same gamma; empty when the geometry has none.
	table  keyTable
	pos    bucketCounts
	neg    bucketCounts
	zero   uint64
	posInf uint64
	negInf uint64
	nan    uint64
	n      uint64
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
	s := &QuantileSketch{
		eps:     eps,
		gamma:   gamma,
		lnGamma: lnGamma,
		minKey:  minKey,
		maxKey:  maxKey,
		slack:   0x1p-46 / lnGamma,
	}
	s.table = keyTableFor(s)
	return s
}

// N returns the number of observations absorbed, NaN included.
func (s *QuantileSketch) N() int { return int(s.n) }

// bucket returns the geometric bucket index of a positive finite value:
// the k with x in (gamma^(k-1), gamma^k], clamped to [minKey, maxKey].
// A value in the cell table's window is one lookup and one compare;
// every other value, and every value of a geometry without a table,
// takes slowBucket.
func (s *QuantileSketch) bucket(x float64) int {
	t := &s.table
	// shift&63 spares the compiler's check for shifts of 64 and more.
	if i := math.Float64bits(x)>>(t.shift&63) - t.base; i < uint64(len(t.cells)) {
		c := &t.cells[i]
		k := int(c.k)
		if x > c.edge {
			k++
		}
		return k
	}
	return s.slowBucket(x)
}

// The cell table spans [2^tableMinExp, 2^(tableMinExp+tableOctaves)),
// about 1.5e-5 to 2.8e14: interarrival seconds and repair minutes from
// microseconds to millions of years. Values outside it, subnormals
// included, take slowBucket.
const (
	tableMinExp  = -16
	tableOctaves = 64
	// maxCellBits bounds a table at tableOctaves<<10 cells (1 MiB); a
	// geometry that needs finer cells (eps below about 5e-4) has none.
	maxCellBits = 10
	// maxKeyTables bounds the process-wide table cache, so snapshots
	// carrying many epsilons cannot grow memory: sketches of further
	// geometries key with slowBucket.
	maxKeyTables = 8
)

// keyTable is bucket's lookup table for one geometry. Cell i holds the
// positive floats whose bits shifted right by shift equal base+i: one
// binary exponent and the top 52-shift mantissa bits. Cells are
// narrower than a bucket, so at most one bucket edge falls inside one.
type keyTable struct {
	shift uint
	base  uint64
	cells []keyCell
}

// keyCell keys every value of its cell: k is the bucket of the cell's
// low end and edge = Pow(gamma, k) its top, so a value x in the cell has
// key k, or k+1 when x > edge.
type keyCell struct {
	edge float64
	k    int32
}

// keyTables is the process-wide cache of cell tables by gamma.
var keyTables struct {
	sync.Mutex
	gammas []float64
	tables []keyTable
}

// keyTableFor returns the cell table of s's geometry, building it on
// the geometry's first use. It returns an empty table when the geometry
// needs cells finer than maxCellBits, when its table failed to build,
// and for new geometries once the cache holds maxKeyTables.
func keyTableFor(s *QuantileSketch) keyTable {
	c := cellBits(s.gamma)
	if c < 0 {
		return keyTable{}
	}
	keyTables.Lock()
	defer keyTables.Unlock()
	for i, g := range keyTables.gammas {
		if g == s.gamma {
			return keyTables.tables[i]
		}
	}
	if len(keyTables.gammas) == maxKeyTables {
		return keyTable{}
	}
	t := buildKeyTable(s, c)
	keyTables.gammas = append(keyTables.gammas, s.gamma)
	keyTables.tables = append(keyTables.tables, t)
	return t
}

// cellBits returns the fewest mantissa bits c whose cells are narrower
// than a bucket, 2^-c < gamma-1, or -1 when that takes more than
// maxCellBits.
func cellBits(gamma float64) int {
	for c := 0; c <= maxCellBits; c++ {
		if math.Ldexp(1, -c) < gamma-1 {
			return c
		}
	}
	return -1
}

// buildKeyTable tabulates s's geometry at c mantissa bits per cell. It
// walks the cells in ascending order with the bucket k of the current
// cell's low end lo, starting from slowBucket's key of the first, and
// moves to the next bucket when lo passes Pow(gamma, k). Every cell is
// checked against the Pow edges around it: Pow(gamma, k-1) < lo <=
// Pow(gamma, k), the cell's last float is at most Pow(gamma, k+1), and
// k is inside the clamp range. Then every x in the cell lies in bucket
// k when x <= Pow(gamma, k) and in bucket k+1 otherwise, which is the
// bucket's definition, so the table's keys are exact. Should a check
// fail, the geometry gets no table rather than a wrong key.
func buildKeyTable(s *QuantileSketch, c int) keyTable {
	t := keyTable{shift: uint(52 - c), cells: make([]keyCell, tableOctaves<<c)}
	t.base = math.Float64bits(math.Ldexp(1, tableMinExp)) >> t.shift
	pow := func(k int) float64 { return math.Pow(s.gamma, float64(k)) }
	k := s.slowBucket(math.Ldexp(1, tableMinExp))
	below, edge, above := pow(k-1), pow(k), pow(k+1)
	for i := range t.cells {
		lo := math.Float64frombits((t.base + uint64(i)) << t.shift)
		last := math.Float64frombits((t.base+uint64(i)+1)<<t.shift - 1)
		if lo > edge {
			k++
			below, edge, above = edge, above, pow(k+1)
		}
		if !(k > s.minKey && k < s.maxKey && below < lo && lo <= edge && last <= above) {
			return keyTable{}
		}
		t.cells[i] = keyCell{edge: edge, k: int32(k)}
	}
	return t
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

// Key classifies x and, for a finite nonzero x, buckets its magnitude
// under the sketch's geometry. It reads only that geometry, fixed at
// construction, and never the counts: a sketch used only for keying can
// key values for any accumulator of the same epsilon, from any goroutine.
func (s *QuantileSketch) Key(x float64) Key {
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
func (s *QuantileSketch) Add(x float64) { s.addKey(s.Key(x)) }

// addKey folds the observation k was computed for. Every bucket index is
// a function of x and gamma alone, so a key from a sketch with the same
// gamma is this sketch's own; a key from any other geometry (or the zero
// Key) is recomputed here from its value.
func (s *QuantileSketch) addKey(k Key) {
	if k.gamma != s.gamma {
		k = s.Key(k.x)
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
