package engine

import "time"

// instant is a time.Time's wall-clock reading as two integers: seconds
// since January 1, year 1 UTC — time's internal epoch, wrapping exactly
// where time.Time's own seconds wrap — and nanoseconds in [0, 1e9). The
// fold keeps start times as instants because comparing and subtracting
// them is a few integer operations, where time.Time.Sub re-adds its
// result and compares to detect overflow.
//
// An instant has no monotonic clock reading, so sub and before agree
// with time.Time's Sub and Before only for times that carry none.
// Records never do: the CSV reader builds their times with time.Parse,
// tracefmt and WAL replay with time.Unix, and lanl from time.Date.
type instant struct {
	sec  int64
	nsec int32
}

// unixToInternal is the offset from Unix seconds to time's internal
// seconds since year 1.
const unixToInternal int64 = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 24 * 60 * 60

func instantOf(t time.Time) instant {
	return instant{sec: t.Unix() + unixToInternal, nsec: int32(t.Nanosecond())}
}

// time returns the instant as a UTC time.Time, the form a restored
// snapshot reads it back in.
func (t instant) time() time.Time {
	return time.Unix(t.sec-unixToInternal, int64(t.nsec)).UTC()
}

// before reports whether t is earlier than u, as time.Time.Before.
func (t instant) before(u instant) bool {
	return t.sec < u.sec || t.sec == u.sec && t.nsec < u.nsec
}

// maxExactSec bounds the whole-second difference whose nanosecond total
// fits a time.Duration whatever the nanosecond fields: 9223372035 s plus
// a second is still under 2^63 ns.
const maxExactSec = 9223372035

// sub returns t-u with time.Time.Sub's semantics: the exact difference
// when it fits a Duration, and otherwise the Duration extreme of its
// sign. Differences within maxExactSec seconds (about 292 years) are
// exact by integer arithmetic; the rare longer ones, where saturation is
// possible, are handed to time.Time.Sub itself.
func (t instant) sub(u instant) time.Duration {
	ds := t.sec - u.sec
	// The subtraction overflowed iff t and u differ in sign and ds and t
	// do too.
	if (t.sec^u.sec)&(t.sec^ds) >= 0 && ds >= -maxExactSec && ds <= maxExactSec {
		return time.Duration(ds)*time.Second + time.Duration(t.nsec-u.nsec)
	}
	return t.time().Sub(u.time())
}
