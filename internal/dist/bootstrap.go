package dist

import (
	"math"
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
// family kernel, and evaluates the KS statistic with a direct
// (devirtualized) CDF call over a reused sort buffer — no per-rep slice,
// ECDF or interface allocation. Each replication draws from its own
// counter-derived seed, so this one-block call is bit-identical to any
// partition of the same reps across workers via KSPlan.RunBlock, and to a
// replication loop that refits each reseeded sample with RefFit.
func BootstrapKSTest(f Family, xs []float64, reps int, seed int64) (KSTestResult, error) {
	p, err := NewKSPlan(f, NewSample(xs), reps, seed)
	if err != nil {
		return KSTestResult{}, err
	}
	return p.Merge([]KSBlock{p.RunBlock(0, p.reps)})
}

// ksStat replicates stats.ECDF.KolmogorovSmirnov over an already-sorted
// slice with a direct CDF call. The loop body and accumulation order match
// the ECDF method exactly, so the statistic carries the same bits.
func ksStat[D Continuous](d D, sorted []float64) float64 {
	n := float64(len(sorted))
	maxDiff := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
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
