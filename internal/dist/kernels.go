package dist

import (
	"fmt"
	"math"

	"hpcfail/internal/mathx"
)

// This file holds the zero-allocation fit kernels: each maximum-likelihood
// fitter re-expressed over the precomputed transforms of an xform instead of
// walking a raw slice. Every kernel performs exactly the floating-point
// operations of its frozen reference in ref.go, in the same order, reading
// cached values (log x, Σx, Σ log x, max, log max) where the reference
// recomputed them — math.Log and math.Exp are deterministic, so substituting
// a cached transcendental for a recomputed one preserves every bit of the
// result. The property tests in sample_test.go enforce this with exact ==
// comparisons.

// positivityErr reproduces checkPositive's error for a precomputed sample.
func positivityErr(name string, t *xform) error {
	i := t.badPos
	return fmt.Errorf("fit %s: observation %d is %g: %w", name, i, t.xs[i], ErrUnsupported)
}

// weibullSolver solves the Weibull profile-likelihood shape equation over a
// precomputed xform. The score closure is allocated once at construction and
// reads the solver's current xform, so the bootstrap rep loop can re-point
// it at a freshly gathered resample without allocating.
type weibullSolver struct {
	t       *xform
	meanLog float64
	score   func(float64) float64
	// Score memo: FindBracket evaluates the score at both endpoints, then
	// Brent immediately re-evaluates the exact same two points, and the
	// final scale pass needs Σ(x/max)^k at a shape Brent already visited.
	// Each evaluation is a full O(n) exp pass, so those repeats are worth
	// caching. Keyed by exact float64 equality, the memo returns the very
	// bits the loop would recompute — results stay bit-identical.
	memoK, memoSw, memoVal [4]float64
	memoLen, memoPos       int
}

func newWeibullSolver() *weibullSolver {
	w := &weibullSolver{}
	// MLE shape k solves: Σ x^k ln x / Σ x^k - 1/k - meanLog = 0, with the
	// sums stabilized by factoring out max^k. The reference evaluates
	// exp(k·(log x − log max)) with two fresh logs per observation per
	// solver iteration; here both logs come from the caches (shifted[i] is
	// exactly log x − log max), leaving one math.Exp per observation.
	w.score = func(k float64) float64 {
		for i := 0; i < w.memoLen; i++ {
			if w.memoK[i] == k {
				return w.memoVal[i]
			}
		}
		t := w.t
		var sw, swl float64 // Σ (x/max)^k and Σ (x/max)^k ln x
		for i, d := range t.shifted {
			e := math.Exp(k * d)
			sw += e
			swl += e * t.logs[i]
		}
		v := swl/sw - 1/k - w.meanLog
		idx := w.memoPos
		if w.memoLen < len(w.memoK) {
			idx = w.memoLen
			w.memoLen++
		} else {
			w.memoPos = (w.memoPos + 1) % len(w.memoK)
		}
		w.memoK[idx], w.memoSw[idx], w.memoVal[idx] = k, sw, v
		return v
	}
	return w
}

// solve runs bracket + Brent on the score and derives the profile-MLE scale.
// Validation (length, positivity, degeneracy) is the caller's job.
func (w *weibullSolver) solve(t *xform) (shape, scale float64, err error) {
	n := float64(len(t.xs))
	w.t = t
	w.meanLog = t.sumLog / n
	w.memoLen, w.memoPos = 0, 0 // score depends on t and meanLog
	lo, hi, err := mathx.FindBracket(w.score, 1e-3, 5)
	if err != nil {
		return 0, 0, fmt.Errorf("fit weibull: bracket shape: %w", err)
	}
	if lo <= 0 {
		lo = 1e-6
	}
	k, err := mathx.Brent(w.score, lo, hi, 1e-11)
	if err != nil {
		return 0, 0, fmt.Errorf("fit weibull: solve shape: %w", err)
	}
	// Scale from the profile MLE: λ = (Σ x^k / n)^(1/k). Brent returns an
	// iterate it evaluated, so the memo almost always has Σ(x/max)^k at k
	// already; the loop is the fallback.
	sw, ok := -1.0, false
	for i := 0; i < w.memoLen; i++ {
		if w.memoK[i] == k {
			sw, ok = w.memoSw[i], true
			break
		}
	}
	if !ok {
		sw = 0
		for _, d := range t.shifted {
			sw += math.Exp(k * d)
		}
	}
	return k, t.max * math.Pow(sw/n, 1/k), nil
}

func (w *weibullSolver) fit(t *xform) (Weibull, error) {
	if len(t.xs) < 2 {
		return Weibull{}, fmt.Errorf("fit weibull: need >= 2 observations: %w", ErrInsufficientData)
	}
	if !t.positive {
		return Weibull{}, positivityErr("weibull", t)
	}
	if t.allEqual {
		return Weibull{}, fmt.Errorf("fit weibull: all observations identical: %w", ErrInsufficientData)
	}
	k, scale, err := w.solve(t)
	if err != nil {
		return Weibull{}, err
	}
	return NewWeibull(k, scale)
}

// gammaSolver solves the gamma shape equation ln k − ψ(k) = s by Newton
// iteration; the closures are allocated once and read the solver's current
// log-moment gap.
type gammaSolver struct {
	s     float64
	f, df func(float64) float64
}

func newGammaSolver() *gammaSolver {
	g := &gammaSolver{}
	g.f = func(k float64) float64 {
		dg, err := mathx.Digamma(k)
		if err != nil {
			return math.NaN()
		}
		return math.Log(k) - dg - g.s
	}
	g.df = func(k float64) float64 {
		tg, err := mathx.Trigamma(k)
		if err != nil {
			return math.NaN()
		}
		return 1/k - tg
	}
	return g
}

func (g *gammaSolver) fit(t *xform) (Gamma, error) {
	if len(t.xs) < 2 {
		return Gamma{}, fmt.Errorf("fit gamma: need >= 2 observations: %w", ErrInsufficientData)
	}
	if !t.positive {
		return Gamma{}, positivityErr("gamma", t)
	}
	if t.allEqual {
		return Gamma{}, fmt.Errorf("fit gamma: all observations identical: %w", ErrInsufficientData)
	}
	n := float64(len(t.xs))
	mean := t.sum / n
	g.s = math.Log(mean) - t.sumLog/n // strictly positive by Jensen unless degenerate
	if g.s <= 0 {
		return Gamma{}, fmt.Errorf("fit gamma: degenerate log-moment gap %g: %w", g.s, ErrInsufficientData)
	}
	// Minka's starting approximation.
	s := g.s
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	shape, err := mathx.NewtonBounded(g.f, g.df, k, 1e-12, 1e9, 1e-12)
	if err != nil {
		// Fall back to a bracketed solve.
		lo, hi, berr := mathx.FindBracket(g.f, k/10, k*10)
		if berr != nil {
			return Gamma{}, fmt.Errorf("fit gamma: solve shape: %w", err)
		}
		shape, err = mathx.Brent(g.f, lo, hi, 1e-12)
		if err != nil {
			return Gamma{}, fmt.Errorf("fit gamma: solve shape: %w", err)
		}
	}
	return NewGamma(shape, mean/shape)
}

func fitLogNormalKernel(t *xform) (LogNormal, error) {
	if len(t.xs) < 2 {
		return LogNormal{}, fmt.Errorf("fit lognormal: need >= 2 observations: %w", ErrInsufficientData)
	}
	if !t.positive {
		return LogNormal{}, positivityErr("lognormal", t)
	}
	n := float64(len(t.xs))
	mu := t.sumLog / n
	var ss float64
	for _, lg := range t.logs {
		d := lg - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / n)
	if sigma == 0 {
		return LogNormal{}, fmt.Errorf("fit lognormal: all observations identical: %w", ErrInsufficientData)
	}
	return NewLogNormal(mu, sigma)
}

func fitExponentialKernel(t *xform) (Exponential, error) {
	if len(t.xs) == 0 {
		return Exponential{}, fmt.Errorf("fit exponential: %w", ErrInsufficientData)
	}
	if !t.positive {
		return Exponential{}, positivityErr("exponential", t)
	}
	return NewExponential(float64(len(t.xs)) / t.sum)
}

func fitNormalKernel(t *xform) (Normal, error) {
	if len(t.xs) < 2 {
		return Normal{}, fmt.Errorf("fit normal: need >= 2 observations: %w", ErrInsufficientData)
	}
	if !t.finite {
		i := t.badFin
		return Normal{}, fmt.Errorf("fit normal: observation %d is %g: %w", i, t.xs[i], ErrUnsupported)
	}
	n := float64(len(t.xs))
	mu := t.sum / n
	var ss float64
	for _, x := range t.xs {
		d := x - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / n)
	if sigma == 0 {
		return Normal{}, fmt.Errorf("fit normal: all observations identical: %w", ErrInsufficientData)
	}
	return NewNormal(mu, sigma)
}

// fitParetoKernel computes the maximum-likelihood Pareto fit from the
// cached minimum and positivity scan: xm is the sample minimum and
// alpha = n / Σ ln(x_i / xm).
func fitParetoKernel(t *xform) (Pareto, error) {
	if len(t.xs) < 2 {
		return Pareto{}, fmt.Errorf("fit pareto: need >= 2 observations: %w", ErrInsufficientData)
	}
	if !t.positive {
		return Pareto{}, positivityErr("pareto", t)
	}
	// The reference evaluates log(x/xm), not log x − log xm, so the raw
	// values are walked here; only the min scan comes from the cache.
	xm := t.min
	var sum float64
	for _, x := range t.xs {
		sum += math.Log(x / xm)
	}
	if sum == 0 {
		return Pareto{}, fmt.Errorf("fit pareto: all observations identical: %w", ErrInsufficientData)
	}
	return NewPareto(xm, float64(len(t.xs))/sum)
}

// hyperExpSolver owns the EM responsibility buffer so bootstrap reps do not
// allocate one per refit.
type hyperExpSolver struct {
	resp []float64
}

// fit fits a two-phase hyperexponential by 200 iterations of
// expectation-maximization from a moment-matched starting point.
func (h *hyperExpSolver) fit(t *xform) (HyperExp, error) {
	if len(t.xs) < 4 {
		return HyperExp{}, fmt.Errorf("fit hyperexp: need >= 4 observations: %w", ErrInsufficientData)
	}
	if !t.positive {
		return HyperExp{}, positivityErr("hyperexp", t)
	}
	if t.allEqual {
		return HyperExp{}, fmt.Errorf("fit hyperexp: all observations identical: %w", ErrInsufficientData)
	}
	mean := t.sum / float64(len(t.xs))
	// Initialization: split rates around the mean.
	p := 0.5
	rate1 := 2 / mean
	rate2 := 0.5 / mean
	h.resp = growFloats(h.resp, len(t.xs))
	refitHyperExpEM(t.xs, h.resp, &p, &rate1, &rate2, 200)
	// Clamp away from the degenerate boundary.
	const eps = 1e-9
	if p <= 0 {
		p = eps
	}
	if p >= 1 {
		p = 1 - eps
	}
	return NewHyperExp(p, rate1, rate2)
}
