package dist

import (
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/randx"
)

// KSTestResult is the outcome of a parametric-bootstrap Kolmogorov–Smirnov
// test of one family against a sample.
type KSTestResult struct {
	Family Family
	// Dist is the fit to the original sample.
	Dist Continuous
	// KS is the observed statistic of that fit.
	KS float64
	// P is the bootstrap p-value: the fraction of same-size samples drawn
	// from the fitted model whose own refitted KS statistic is at least as
	// large. Small P means the family genuinely does not describe the
	// data; the naive Kolmogorov p-value is anti-conservative here because
	// the parameters were estimated from the same sample.
	P float64
	// Replications is the number of successful bootstrap rounds.
	Replications int
}

// BootstrapKSTest runs a parametric-bootstrap KS test: fit the family,
// measure KS, then repeatedly simulate same-size samples from the fit,
// refit, and compare statistics. reps <= 0 uses 200 replications. Each
// replication generates into a scratch transform buffer, refits with the
// family's refitter, and evaluates the KS statistic with the refitter's
// unboxed CDF over a reused sort buffer — no per-rep slice, ECDF or
// interface allocation. Replication r draws from its own seed,
// repSeed(seed, r), so the result is bit-identical to a replication loop
// that refits each reseeded sample with RefFit.
func BootstrapKSTest(f Family, xs []float64, reps int, seed int64) (KSTestResult, error) {
	s := NewSample(xs)
	n := s.N()
	if n < 5 {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: need >= 5 observations: %w", ErrInsufficientData)
	}
	if reps <= 0 {
		reps = 200
	}
	fit := newRefitter(f)
	if fit == nil {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: unknown family %v: %w", f, ErrBadParam)
	}
	if err := fit.refit(&s.t); err != nil {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: %w", err)
	}
	fitted := fit.fitted()
	ecdf, err := s.ECDF()
	if err != nil {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: %w", err)
	}
	observed := ecdf.KolmogorovSmirnov(fitted.CDF)

	src := randx.NewSource(0)
	scratch := xform{xs: make([]float64, n)}
	sorted := make([]float64, n)
	var exceed, ok int
	for r := 0; r < reps; r++ {
		src.Reseed(repSeed(seed, r))
		for i := range scratch.xs {
			scratch.xs[i] = fitted.Rand(src)
		}
		scratch.scan()
		if fit.refit(&scratch) != nil {
			continue // a degenerate sample; skip it
		}
		copy(sorted, scratch.xs)
		sort.Float64s(sorted)
		ok++
		if ksStat(fit, sorted) >= observed {
			exceed++
		}
	}
	if ok == 0 {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: every replication failed: %w", ErrInsufficientData)
	}
	return KSTestResult{
		Family:       f,
		Dist:         fitted,
		KS:           observed,
		P:            float64(exceed) / float64(ok),
		Replications: ok,
	}, nil
}

// ksStat replicates stats.ECDF.KolmogorovSmirnov over an already-sorted
// slice with the refitter's CDF. The loop body and accumulation order match
// the ECDF method exactly, so the statistic carries the same bits.
func ksStat(fit refitter, sorted []float64) float64 {
	n := float64(len(sorted))
	maxDiff := 0.0
	for i, x := range sorted {
		f := fit.cdf(x)
		// Compare against both the pre- and post-step value of the ECDF.
		dPlus := math.Abs(float64(i+1)/n - f)
		dMinus := math.Abs(f - float64(i)/n)
		if dPlus > maxDiff {
			maxDiff = dPlus
		}
		if dMinus > maxDiff {
			maxDiff = dMinus
		}
	}
	return maxDiff
}
