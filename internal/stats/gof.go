package stats

import (
	"fmt"
	"math"
)

// KolmogorovPValue returns the asymptotic p-value of a Kolmogorov–Smirnov
// statistic d computed from a sample of size n against a fully specified
// (not fitted) distribution, using the Kolmogorov limiting distribution
// with the Stephens finite-n correction. When the reference distribution's
// parameters were estimated from the same data, the true p-value is
// smaller — use this as an upper bound (the paper relies on visual fits
// plus log-likelihood, Section 3; this makes the KS column interpretable).
func KolmogorovPValue(d float64, n int) (float64, error) {
	if n <= 0 {
		return math.NaN(), fmt.Errorf("stats: sample size %d", n)
	}
	if d < 0 || d > 1 || math.IsNaN(d) {
		return math.NaN(), fmt.Errorf("stats: KS statistic %g outside [0, 1]", d)
	}
	if d == 0 {
		return 1, nil
	}
	sqrtN := math.Sqrt(float64(n))
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	var p float64
	if lambda < 1.18 {
		// Dual theta-function form, rapidly convergent for small λ:
		// Q(λ) = 1 − (√(2π)/λ) Σ_{k>=1} e^{−(2k−1)²π²/(8λ²)}.
		t := math.Exp(-math.Pi * math.Pi / (8 * lambda * lambda))
		sum := t + math.Pow(t, 9) + math.Pow(t, 25) + math.Pow(t, 49)
		p = 1 - math.Sqrt(2*math.Pi)/lambda*sum
	} else {
		// Q(λ) = 2 Σ_{k>=1} (−1)^{k−1} e^{−2k²λ²}, fast for large λ.
		sum := 0.0
		sign := 1.0
		for k := 1; k <= 100; k++ {
			term := math.Exp(-2 * float64(k*k) * lambda * lambda)
			sum += sign * term
			if term < 1e-14 {
				break
			}
			sign = -sign
		}
		p = 2 * sum
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}
