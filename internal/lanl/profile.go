package lanl

import (
	"math"
	"sync"
	"time"
)

// This file holds the profile-construction fast path. Building the
// per-hour intensity profile dominated the sequential generator's wall
// clock (~46% of Generate in profiles): one time.Time construction, one
// cosine, one weekday lookup and one lifecycle exponential per simulated
// hour, across ~705k hours per full run. All four are loop factors that
// only depend on the hour index once a system's window starts at a UTC
// midnight — which ValidateCatalog requires of every catalog, and which
// catalog.go's date helper gives every Table 1 window — so they compile
// into small shared tables. Each replacement reproduces the reference
// arithmetic of ref.go exactly:
//
//   - hourFactor: at whole hours past midnight, hod = float64(h%24), so
//     the 24-entry hf24 table indexed by h%24 is bitwise hourFactor(t).
//   - dayFactor: the weekday of hour h is (startWeekday + h/24) mod 7 in
//     plain integer arithmetic (UTC has no DST), selecting the same
//     weekday/weekend constant.
//   - lifecycleAt: depends only on (shape, amplitude, h), and the catalog
//     uses three (shape, amplitude) pairs, so each Generator memoizes the
//     curves once for all its systems and runs, and releases them with
//     itself.

// hourFactorAt is the hour-of-day modulation at a fractional hour of day.
// Both the per-time hourFactor and the hf24 table evaluate through this
// single helper so their arithmetic cannot drift apart.
func hourFactorAt(hod float64) float64 {
	return 1 + hourAmplitude*math.Cos(2*math.Pi*(hod-peakHour)/24)
}

// hf24 caches hourFactor for each whole hour of day.
var hf24 = func() [24]float64 {
	var t [24]float64
	for i := range t {
		t[i] = hourFactorAt(float64(i))
	}
	return t
}()

// weekTable caches the combined hour-of-day × day-of-week product over
// one 168-hour week, indexed by hours since a Sunday midnight. The
// reference loop computes hourFactor(t)*dayFactor(t) as one product
// before folding it into the rate; the table stores exactly that
// product, from the same hf24 values and weekday constants, so reading
// weekTable[(startWeekday*24 + h) % 168] is bitwise the reference pair.
var weekTable = func() [168]float64 {
	var t [168]float64
	for o := range t {
		df := weekdayFactor
		if wd := o / 24; wd == 0 || wd == 6 { // Sunday, Saturday
			df = weekendFactor
		}
		t[o] = hf24[o%24] * df
	}
	return t
}()

// lifecycleKey identifies one memoized lifecycle curve. The catalog
// yields only three distinct keys (infant/3.0, infant/5.0, ramp), so the
// memo stays small: about 1.6 MB over the Table 1 windows.
type lifecycleKey struct {
	shape lifecycleShape
	amp   float64
}

// lifecycleMemo holds a Generator's lifecycle curves. It is built on
// the generator's first use and lives exactly as long as the generator.
type lifecycleMemo struct {
	sync.Mutex
	m map[lifecycleKey][]float64
}

// lifecycleTable returns lifecycleAt(shape, amp, h/24) for h in [0,
// hours), memoized in g and grown monotonically. The returned slice is
// append-grown under the lock and never mutated below a length already
// handed out, so concurrent readers are safe.
func (g *Generator) lifecycleTable(shape lifecycleShape, amp float64, hours int) []float64 {
	key := lifecycleKey{shape: shape, amp: amp}
	g.life.Lock()
	defer g.life.Unlock()
	if g.life.m == nil {
		g.life.m = make(map[lifecycleKey][]float64)
	}
	t := g.life.m[key]
	for h := len(t); h < hours; h++ {
		t = append(t, lifecycleAt(shape, amp, float64(h)/24))
	}
	g.life.m[key] = t
	return t
}

// profileAligned reports whether a window start suits the table-driven
// profile loop: a UTC midnight, so hour-of-day and weekday follow the
// hour index by integer arithmetic. ValidateCatalog rejects any other
// start.
func profileAligned(t time.Time) bool {
	return t.Location() == time.UTC &&
		t.Hour() == 0 && t.Minute() == 0 && t.Second() == 0 && t.Nanosecond() == 0
}

// eraThreshold returns the operational-time position at which the
// profile's wall clock reaches correlationEndYear, so the per-arrival
// era test profile.wallTime(pos).Year() < correlationEndYear becomes the
// comparison pos < eraEnd. wallTime is monotone non-decreasing in op
// (the hour index from the cum search is non-decreasing, and the
// clamped intra-hour fraction is non-decreasing within an hour), so the
// predicate is true on a prefix of [0, cum[end]] and false after it.
// The boundary is found by bisecting the predicate itself over the
// float64 bit representation — non-negative floats order identically to
// their bits — which makes the replacement exact for every representable
// position, clamping and truncation quirks included.
func (p *intensityProfile) eraThreshold() float64 {
	early := func(op float64) bool {
		return p.wallTime(op).Year() < correlationEndYear
	}
	hi := p.cum[len(p.cum)-1]
	if early(hi) {
		return math.Inf(1)
	}
	if !early(0) {
		return 0
	}
	lo, hib := math.Float64bits(0), math.Float64bits(hi)
	for lo+1 < hib {
		mid := lo + (hib-lo)/2
		if early(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hib = mid
		}
	}
	return math.Float64frombits(hib)
}
