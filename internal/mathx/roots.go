package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver fails to reach the
// requested tolerance within its iteration budget.
var ErrNoConvergence = errors.New("mathx: no convergence")

// ErrBracket is returned when a bracketing solver is handed an interval on
// which the function does not change sign.
var ErrBracket = errors.New("mathx: root not bracketed")

// Brent finds a root of f on [a, b] using Brent's method (inverse quadratic
// interpolation with bisection fallback). f(a) and f(b) must have opposite
// signs.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return math.NaN(), fmt.Errorf("brent on [%g, %g]: %w", a, b, ErrBracket)
	}
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if math.Signbit(fb) != math.Signbit(fc) {
			// keep the bracket
		} else {
			c, fc = a, fa
			d = b - a
			e = d
		}
	}
	return math.NaN(), fmt.Errorf("brent: %w", ErrNoConvergence)
}

// FindBracket expands outward from [a, b] geometrically until f changes sign
// across the interval, returning the bracketing pair. It is used to seed
// Brent when only a rough starting interval is known.
func FindBracket(f func(float64) float64, a, b float64) (float64, float64, error) {
	if a >= b {
		return math.NaN(), math.NaN(), fmt.Errorf("find bracket: invalid interval [%g, %g]: %w", a, b, ErrDomain)
	}
	const factor = 1.6
	fa, fb := f(a), f(b)
	for i := 0; i < 80; i++ {
		if math.Signbit(fa) != math.Signbit(fb) {
			return a, b, nil
		}
		if math.Abs(fa) < math.Abs(fb) {
			a += factor * (a - b)
			fa = f(a)
		} else {
			b += factor * (b - a)
			fb = f(b)
		}
	}
	return math.NaN(), math.NaN(), fmt.Errorf("find bracket: %w", ErrBracket)
}

// NewtonBounded performs a damped Newton iteration on f with derivative df,
// constrained to (lo, hi). The step is halved until it stays in bounds.
func NewtonBounded(f, df func(float64) float64, x0, lo, hi, tol float64) (float64, error) {
	x := x0
	for i := 0; i < 100; i++ {
		fx := f(x)
		dfx := df(x)
		if dfx == 0 {
			return math.NaN(), fmt.Errorf("newton: zero derivative at %g: %w", x, ErrNoConvergence)
		}
		step := fx / dfx
		xNew := x - step
		for j := 0; j < 60 && (xNew <= lo || xNew >= hi); j++ {
			step /= 2
			xNew = x - step
		}
		if xNew <= lo || xNew >= hi {
			return math.NaN(), fmt.Errorf("newton: iterate escaped (%g, %g): %w", lo, hi, ErrNoConvergence)
		}
		if math.Abs(xNew-x) <= tol*math.Max(1, math.Abs(xNew)) {
			return xNew, nil
		}
		x = xNew
	}
	return math.NaN(), fmt.Errorf("newton: %w", ErrNoConvergence)
}
