// Package mathx provides the special functions and numerical routines that
// the distribution-fitting layer is built on. Everything here is implemented
// from scratch on top of the Go standard library's math package.
//
// The implementations follow standard numerical-methods references
// (Abramowitz & Stegun; Numerical Recipes-style series/continued-fraction
// splits) and are validated in the test suite against high-precision
// reference values.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrDomain is returned (or wrapped) by routines whose argument lies outside
// the mathematical domain of the function.
var ErrDomain = errors.New("mathx: argument outside domain")

const (

	// epsRel is the relative tolerance used by iterative expansions.
	epsRel = 1e-14

	// maxIter bounds series and continued-fraction iterations.
	maxIter = 500
)

// GammaRegP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
func GammaRegP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return p, err
	}
	q, err := gammaQContinuedFraction(a, x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - q, nil
}

// GammaRegQ computes the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaRegQ(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN(), ErrDomain
	}
	if x == 0 {
		return 1, nil
	}
	if math.IsInf(x, 1) {
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		if err != nil {
			return math.NaN(), err
		}
		return 1 - p, nil
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a, x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsRel {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return math.NaN(), errors.New("mathx: incomplete gamma series did not converge")
}

// gammaQContinuedFraction evaluates Q(a, x) by the Lentz continued fraction,
// accurate for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return math.NaN(), errors.New("mathx: incomplete gamma continued fraction did not converge")
}

// GammaPInv inverts the regularized lower incomplete gamma function:
// it returns x such that P(a, x) = p, for a > 0 and p in [0, 1].
func GammaPInv(a, p float64) (float64, error) {
	if a <= 0 || p < 0 || p > 1 || math.IsNaN(a) || math.IsNaN(p) {
		return math.NaN(), ErrDomain
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return math.Inf(1), nil
	}
	// Initial guess: Wilson–Hilferty for a > 1, small-x series inversion
	// otherwise; then solve in log space with Brent, which is robust across
	// the extreme tails the repair/interarrival quantiles need.
	var x0 float64
	if a > 1 {
		z, err := NormQuantile(p)
		if err != nil {
			return math.NaN(), err
		}
		a1 := 1 / (9 * a)
		x0 = a * math.Pow(1-a1+z*math.Sqrt(a1), 3)
	} else {
		lg, _ := math.Lgamma(a + 1)
		// P(a, x) ≈ x^a / Γ(a+1) for small x.
		x0 = math.Exp((math.Log(p) + lg) / a)
	}
	if x0 <= 0 || math.IsNaN(x0) || math.IsInf(x0, 0) {
		x0 = a
	}
	g := func(y float64) float64 {
		v, err := GammaRegP(a, math.Exp(y))
		if err != nil {
			return math.NaN()
		}
		return v - p
	}
	y0 := math.Log(x0)
	lo, hi := y0-1, y0+1
	gLo, gHi := g(lo), g(hi)
	for i := 0; i < 200 && gLo > 0; i++ {
		lo -= 2
		gLo = g(lo)
	}
	for i := 0; i < 200 && gHi < 0; i++ {
		hi += 2
		gHi = g(hi)
	}
	if gLo > 0 || gHi < 0 || math.IsNaN(gLo) || math.IsNaN(gHi) {
		return math.NaN(), fmt.Errorf("gamma quantile(a=%g, p=%g): %w", a, p, ErrBracket)
	}
	y, err := Brent(g, lo, hi, 1e-13)
	if err != nil {
		return math.NaN(), fmt.Errorf("gamma quantile(a=%g, p=%g): %w", a, p, err)
	}
	return math.Exp(y), nil
}

// Digamma computes the digamma function ψ(x) = d/dx ln Γ(x) for x > 0.
func Digamma(x float64) (float64, error) {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN(), ErrDomain
	}
	result := 0.0
	// Recurrence to push x above the asymptotic threshold.
	for x < 12 {
		result -= 1 / x
		x++
	}
	// Asymptotic expansion with Bernoulli-number coefficients.
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132-inv2*(691.0/32760))))))
	return result, nil
}

// Trigamma computes ψ'(x), the derivative of the digamma function, for x > 0.
func Trigamma(x float64) (float64, error) {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN(), ErrDomain
	}
	result := 0.0
	for x < 12 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	result += inv * (1 + inv*(0.5+inv*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2*(1.0/30-inv2*(5.0/66)))))))
	return result, nil
}

// NormCDF is the standard normal cumulative distribution function Φ(z).
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormPDF is the standard normal density φ(z).
func NormPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// NormQuantile computes Φ⁻¹(p), the inverse standard normal CDF, using the
// Acklam rational approximation refined by one Halley step. Accuracy is
// better than 1e-12 over (0, 1).
func NormQuantile(p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN(), ErrDomain
	}
	switch p {
	case 0:
		return math.Inf(-1), nil
	case 1:
		return math.Inf(1), nil
	}
	// Acklam coefficients.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x, nil
}

// LogFactorial returns ln(n!) computed through the log-gamma function.
func LogFactorial(n int) (float64, error) {
	if n < 0 {
		return math.NaN(), ErrDomain
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg, nil
}
