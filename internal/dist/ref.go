package dist

import (
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/mathx"
	"hpcfail/internal/stats"
)

// This file freezes the pre-kernel, slice-walking fitters exactly as they
// shipped before the precomputed-transform Sample layer existed. They are
// deliberately NOT optimized: the property tests assert that every kernel
// fitter is bit-identical (== on parameters, not within-epsilon) to its
// reference here, and the bootstrap tests refit every live resample with
// RefFit. Do not modernize these bodies; their value is that they do not
// change.

// RefFit dispatches to the frozen reference maximum-likelihood fitter for
// the family.
func RefFit(f Family, xs []float64) (Continuous, error) {
	switch f {
	case FamilyExponential:
		return refFitExponential(xs)
	case FamilyWeibull:
		return refFitWeibull(xs)
	case FamilyGamma:
		return refFitGamma(xs)
	case FamilyLogNormal:
		return refFitLogNormal(xs)
	case FamilyNormal:
		return refFitNormal(xs)
	case FamilyPareto:
		return refFitPareto(xs)
	case FamilyHyperExp:
		return refFitHyperExp(xs, 0)
	default:
		return nil, fmt.Errorf("fit: unknown family %v: %w", f, ErrBadParam)
	}
}

func refFitExponential(xs []float64) (Exponential, error) {
	if len(xs) == 0 {
		return Exponential{}, fmt.Errorf("fit exponential: %w", ErrInsufficientData)
	}
	if err := checkPositive("exponential", xs); err != nil {
		return Exponential{}, err
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return NewExponential(float64(len(xs)) / sum)
}

func refFitWeibull(xs []float64) (Weibull, error) {
	if len(xs) < 2 {
		return Weibull{}, fmt.Errorf("fit weibull: need >= 2 observations: %w", ErrInsufficientData)
	}
	if err := checkPositive("weibull", xs); err != nil {
		return Weibull{}, err
	}
	n := float64(len(xs))
	sumLog := 0.0
	allEqual := true
	for _, x := range xs {
		sumLog += math.Log(x)
		if x != xs[0] {
			allEqual = false
		}
	}
	if allEqual {
		return Weibull{}, fmt.Errorf("fit weibull: all observations identical: %w", ErrInsufficientData)
	}
	meanLog := sumLog / n

	maxX := xs[0]
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
	}
	logMax := math.Log(maxX)
	score := func(k float64) float64 {
		var sw, swl float64 // Σ (x/max)^k and Σ (x/max)^k ln x
		for _, x := range xs {
			w := math.Exp(k * (math.Log(x) - logMax))
			sw += w
			swl += w * math.Log(x)
		}
		return swl/sw - 1/k - meanLog
	}

	lo, hi, err := mathx.FindBracket(score, 1e-3, 5)
	if err != nil {
		return Weibull{}, fmt.Errorf("fit weibull: bracket shape: %w", err)
	}
	if lo <= 0 {
		lo = 1e-6
	}
	k, err := mathx.Brent(score, lo, hi, 1e-11)
	if err != nil {
		return Weibull{}, fmt.Errorf("fit weibull: solve shape: %w", err)
	}
	var sw float64
	for _, x := range xs {
		sw += math.Exp(k * (math.Log(x) - logMax))
	}
	scale := maxX * math.Pow(sw/n, 1/k)
	return NewWeibull(k, scale)
}

func refFitGamma(xs []float64) (Gamma, error) {
	if len(xs) < 2 {
		return Gamma{}, fmt.Errorf("fit gamma: need >= 2 observations: %w", ErrInsufficientData)
	}
	if err := checkPositive("gamma", xs); err != nil {
		return Gamma{}, err
	}
	n := float64(len(xs))
	var sum, sumLog float64
	allEqual := true
	for _, x := range xs {
		sum += x
		sumLog += math.Log(x)
		if x != xs[0] {
			allEqual = false
		}
	}
	if allEqual {
		return Gamma{}, fmt.Errorf("fit gamma: all observations identical: %w", ErrInsufficientData)
	}
	mean := sum / n
	s := math.Log(mean) - sumLog/n
	if s <= 0 {
		return Gamma{}, fmt.Errorf("fit gamma: degenerate log-moment gap %g: %w", s, ErrInsufficientData)
	}
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	f := func(k float64) float64 {
		dg, err := mathx.Digamma(k)
		if err != nil {
			return math.NaN()
		}
		return math.Log(k) - dg - s
	}
	df := func(k float64) float64 {
		tg, err := mathx.Trigamma(k)
		if err != nil {
			return math.NaN()
		}
		return 1/k - tg
	}
	shape, err := mathx.NewtonBounded(f, df, k, 1e-12, 1e9, 1e-12)
	if err != nil {
		lo, hi, berr := mathx.FindBracket(f, k/10, k*10)
		if berr != nil {
			return Gamma{}, fmt.Errorf("fit gamma: solve shape: %w", err)
		}
		shape, err = mathx.Brent(f, lo, hi, 1e-12)
		if err != nil {
			return Gamma{}, fmt.Errorf("fit gamma: solve shape: %w", err)
		}
	}
	return NewGamma(shape, mean/shape)
}

func refFitLogNormal(xs []float64) (LogNormal, error) {
	if len(xs) < 2 {
		return LogNormal{}, fmt.Errorf("fit lognormal: need >= 2 observations: %w", ErrInsufficientData)
	}
	if err := checkPositive("lognormal", xs); err != nil {
		return LogNormal{}, err
	}
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	mu := sum / n
	var ss float64
	for _, x := range xs {
		d := math.Log(x) - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / n)
	if sigma == 0 {
		return LogNormal{}, fmt.Errorf("fit lognormal: all observations identical: %w", ErrInsufficientData)
	}
	return NewLogNormal(mu, sigma)
}

func refFitNormal(xs []float64) (Normal, error) {
	if len(xs) < 2 {
		return Normal{}, fmt.Errorf("fit normal: need >= 2 observations: %w", ErrInsufficientData)
	}
	n := float64(len(xs))
	var sum float64
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return Normal{}, fmt.Errorf("fit normal: observation %d is %g: %w", i, x, ErrUnsupported)
		}
		sum += x
	}
	mu := sum / n
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / n)
	if sigma == 0 {
		return Normal{}, fmt.Errorf("fit normal: all observations identical: %w", ErrInsufficientData)
	}
	return NewNormal(mu, sigma)
}

func refFitPareto(xs []float64) (Pareto, error) {
	if len(xs) < 2 {
		return Pareto{}, fmt.Errorf("fit pareto: need >= 2 observations: %w", ErrInsufficientData)
	}
	if err := checkPositive("pareto", xs); err != nil {
		return Pareto{}, err
	}
	xm := xs[0]
	for _, x := range xs {
		if x < xm {
			xm = x
		}
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x / xm)
	}
	if sum == 0 {
		return Pareto{}, fmt.Errorf("fit pareto: all observations identical: %w", ErrInsufficientData)
	}
	return NewPareto(xm, float64(len(xs))/sum)
}

func refFitHyperExp(xs []float64, maxIter int) (HyperExp, error) {
	if len(xs) < 4 {
		return HyperExp{}, fmt.Errorf("fit hyperexp: need >= 4 observations: %w", ErrInsufficientData)
	}
	if err := checkPositive("hyperexp", xs); err != nil {
		return HyperExp{}, err
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	var sum float64
	allEqual := true
	for _, x := range xs {
		sum += x
		if x != xs[0] {
			allEqual = false
		}
	}
	if allEqual {
		return HyperExp{}, fmt.Errorf("fit hyperexp: all observations identical: %w", ErrInsufficientData)
	}
	mean := sum / float64(len(xs))
	p := 0.5
	rate1 := 2 / mean
	rate2 := 0.5 / mean
	resp := make([]float64, len(xs))
	refitHyperExpEM(xs, resp, &p, &rate1, &rate2, maxIter)
	const eps = 1e-9
	if p <= 0 {
		p = eps
	}
	if p >= 1 {
		p = 1 - eps
	}
	return NewHyperExp(p, rate1, rate2)
}

// refitHyperExpEM is the shared EM iteration of the hyperexponential fit.
// Both the reference and the kernel fitter call it with identical inputs, so
// factoring it out does not perturb any floating-point operation.
func refitHyperExpEM(xs, resp []float64, p, rate1, rate2 *float64, maxIter int) {
	for iter := 0; iter < maxIter; iter++ {
		for i, x := range xs {
			d1 := *p * *rate1 * math.Exp(-*rate1*x)
			d2 := (1 - *p) * *rate2 * math.Exp(-*rate2*x)
			if d1+d2 <= 0 {
				resp[i] = 0.5
				continue
			}
			resp[i] = d1 / (d1 + d2)
		}
		var w1, w1x, w2, w2x float64
		for i, x := range xs {
			w1 += resp[i]
			w1x += resp[i] * x
			w2 += 1 - resp[i]
			w2x += (1 - resp[i]) * x
		}
		if w1x <= 0 || w2x <= 0 || w1 <= 0 || w2 <= 0 {
			break
		}
		newP := w1 / float64(len(xs))
		newRate1 := w1 / w1x
		newRate2 := w2 / w2x
		converged := math.Abs(newP-*p) < 1e-10 &&
			math.Abs(newRate1-*rate1) < 1e-10**rate1 &&
			math.Abs(newRate2-*rate2) < 1e-10**rate2
		*p, *rate1, *rate2 = newP, newRate1, newRate2
		if converged {
			break
		}
	}
}

// RefFitAll is the frozen pre-kernel FitAll: reference fits, the shared NLL
// loop and a freshly built ECDF per call.
func RefFitAll(xs []float64, families ...Family) (*Comparison, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fit all: %w", ErrInsufficientData)
	}
	if len(families) == 0 {
		families = StandardFamilies()
	}
	ecdf, err := stats.NewECDF(xs)
	if err != nil {
		return nil, fmt.Errorf("fit all: %w", err)
	}
	results := make([]FitResult, 0, len(families))
	for _, fam := range families {
		res := FitResult{Family: fam}
		d, err := RefFit(fam, xs)
		if err != nil {
			res.Err = err
			res.NLL = math.Inf(1)
			res.AIC = math.Inf(1)
			res.KS = math.NaN()
		} else {
			res.Dist = d
			nll, err := NegLogLikelihood(d, xs)
			if err != nil {
				res.Err = err
				res.NLL = math.Inf(1)
			} else {
				res.NLL = nll
				res.AIC = 2*float64(d.NumParams()) + 2*nll
			}
			res.KS = ecdf.KolmogorovSmirnov(d.CDF)
		}
		results = append(results, res)
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].NLL < results[j].NLL
	})
	return &Comparison{Results: results}, nil
}
