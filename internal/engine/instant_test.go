package engine

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// checkInstant fails unless the instants of t and u compare, subtract
// and convert back exactly as the time.Time values do.
func checkInstant(tb testing.TB, t, u time.Time) {
	tb.Helper()
	it, iu := instantOf(t), instantOf(u)
	if got, want := it.sub(iu), t.Sub(u); got != want {
		tb.Fatalf("instant %v - %v = %d, time.Sub says %d", t, u, got, want)
	}
	if got, want := iu.sub(it), u.Sub(t); got != want {
		tb.Fatalf("instant %v - %v = %d, time.Sub says %d", u, t, got, want)
	}
	if it.before(iu) != t.Before(u) || iu.before(it) != u.Before(t) {
		tb.Fatalf("instant before disagrees with time.Before for %v, %v", t, u)
	}
	if back := it.time(); !back.Equal(t) || back.Location() != time.UTC {
		tb.Fatalf("instant of %v converts back to %v", t, back)
	}
}

// Instant arithmetic is time.Time's wall-clock arithmetic: across the
// years a CSV timestamp can name, at both edges where Sub saturates, at
// the nanosecond borrow, at equal seconds, and at the whole-second
// bounds of sub's exact integer path.
func TestInstantMatchesTime(t *testing.T) {
	y0 := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)
	y9999 := time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
	base := time.Date(2004, 6, 1, 12, 0, 0, 500, time.UTC)
	// The latest and earliest times u + d for which d = t - u still fits
	// a Duration, and one nanosecond past each.
	satHi := base.Add(time.Duration(math.MaxInt64))
	satLo := base.Add(time.Duration(math.MinInt64))
	pairs := [][2]time.Time{
		{y0, y9999}, {y0, y0}, {y9999, y9999}, {y0, base}, {y9999, base},
		{satHi, base}, {satHi.Add(1), base}, {satLo, base}, {satLo.Add(-1), base},
		{base.Add(time.Second - 2), base.Add(1)}, // nanosecond borrow
		{base, base.Add(999999000)},              // equal seconds
		{time.Unix(maxExactSec, 999999999), time.Unix(0, 0)},
		{time.Unix(maxExactSec+1, 0), time.Unix(0, 999999999)},
		{time.Unix(maxExactSec+2, 0), time.Unix(0, 999999999)},
		{time.Unix(-maxExactSec-2, 999999999), time.Unix(0, 0)},
		{time.Unix(math.MaxInt64, 999999999), time.Unix(math.MinInt64, 0)},
		{time.Unix(math.MaxInt64-unixToInternal+1, 0), base}, // internal seconds wrap
		// Internal seconds MaxInt64 and MinInt64: their difference wraps
		// to -1 s.
		{time.Unix(math.MaxInt64-unixToInternal, 0), time.Unix(math.MaxInt64-unixToInternal+1, 0)},
		{time.Time{}, base},
	}
	for _, p := range pairs {
		checkInstant(t, p[0], p[1])
	}
	rng := rand.New(rand.NewSource(1))
	span := y9999.Unix() - y0.Unix()
	for i := 0; i < 100_000; i++ {
		u := time.Unix(y0.Unix()+rng.Int63n(span), rng.Int63n(1e9))
		var v time.Time
		switch i % 4 {
		case 0: // anywhere in years 0000-9999
			v = time.Unix(y0.Unix()+rng.Int63n(span), rng.Int63n(1e9))
		case 1: // near a saturation edge
			v = u.Add(time.Duration(math.MaxInt64 - rng.Int63n(2e9)))
		case 2:
			v = u.Add(time.Duration(math.MinInt64 + rng.Int63n(2e9)))
		default: // within a few seconds
			v = u.Add(time.Duration(rng.Int63n(4e9) - 2e9))
		}
		checkInstant(t, u, v)
	}
}

// FuzzInstantSub checks instant arithmetic against time.Time's for
// arbitrary (seconds, nanoseconds) pairs, including seconds far outside
// any calendar a trace uses.
func FuzzInstantSub(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(-62167219200), int64(0), int64(253402300799), int64(999999999)) // years 0000 and 9999
	f.Add(int64(maxExactSec), int64(999999999), int64(0), int64(0))
	f.Add(int64(9223372036), int64(854775807), int64(0), int64(0)) // exactly MaxInt64 ns
	f.Add(int64(9223372036), int64(854775808), int64(0), int64(0)) // one past it
	f.Add(int64(1), int64(0), int64(0), int64(1))                  // nanosecond borrow
	f.Add(int64(math.MaxInt64), int64(0), int64(math.MinInt64), int64(0))
	f.Fuzz(func(t *testing.T, s1, n1, s2, n2 int64) {
		checkInstant(t, time.Unix(s1, n1), time.Unix(s2, n2))
	})
}
