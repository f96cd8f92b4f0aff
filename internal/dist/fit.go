package dist

import (
	"fmt"
	"math"
	"sort"
)

// Family selects a distribution family for fitting.
type Family int

// The fitting families. FamilyExponential through FamilyLogNormal are the
// paper's four standard reliability distributions (Section 3); the rest are
// used for count data (Figure 3b) and the Pareto comparison (footnote 1).
const (
	FamilyExponential Family = iota + 1
	FamilyWeibull
	FamilyGamma
	FamilyLogNormal
	FamilyNormal
	FamilyPareto
	FamilyHyperExp
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamilyExponential:
		return "exponential"
	case FamilyWeibull:
		return "weibull"
	case FamilyGamma:
		return "gamma"
	case FamilyLogNormal:
		return "lognormal"
	case FamilyNormal:
		return "normal"
	case FamilyPareto:
		return "pareto"
	case FamilyHyperExp:
		return "hyperexp"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// StandardFamilies are the four distributions the paper fits to every
// empirical CDF of times (Section 3).
func StandardFamilies() []Family {
	return []Family{FamilyExponential, FamilyWeibull, FamilyGamma, FamilyLogNormal}
}

// FitSample dispatches to the kernel maximum-likelihood fitter for the
// family, reusing the sample's precomputed transforms.
func FitSample(f Family, s *Sample) (Continuous, error) {
	switch f {
	case FamilyExponential:
		return FitExponentialSample(s)
	case FamilyWeibull:
		return FitWeibullSample(s)
	case FamilyGamma:
		return FitGammaSample(s)
	case FamilyLogNormal:
		return FitLogNormalSample(s)
	case FamilyNormal:
		return FitNormalSample(s)
	case FamilyPareto:
		return FitParetoSample(s)
	case FamilyHyperExp:
		return FitHyperExpSample(s, 0)
	default:
		return nil, fmt.Errorf("fit: unknown family %v: %w", f, ErrBadParam)
	}
}

// FitResult is one fitted candidate in a model comparison.
type FitResult struct {
	Family Family
	Dist   Continuous
	// NLL is the negative log-likelihood on the fitting data (lower is
	// better) — the paper's comparison score.
	NLL float64
	// AIC is 2k + 2*NLL, penalizing parameter count.
	AIC float64
	// KS is the Kolmogorov–Smirnov distance between the fitted CDF and the
	// empirical CDF, the quantitative stand-in for the paper's "visual
	// inspection" criterion.
	KS float64
	// Err is non-nil if this family could not be fitted; the other fields
	// are then meaningless.
	Err error
}

// Comparison holds the fits of several families to one sample, ordered from
// best (lowest NLL) to worst. Families that failed to fit sort last.
type Comparison struct {
	Results []FitResult
}

// FitAll fits each requested family to xs and ranks the results by NLL.
// Families that cannot be fitted (e.g. Pareto on zero-containing data) are
// recorded with their error rather than aborting the comparison. It builds
// one Sample for all families; use FitAllSample when the caller already has
// one.
func FitAll(xs []float64, families ...Family) (*Comparison, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fit all: %w", ErrInsufficientData)
	}
	return FitAllSample(NewSample(xs), families...)
}

// FitAllSample fits each requested family to the precomputed sample and
// ranks the results by NLL. The data is validated and transformed exactly
// once for all families (the slice path re-walked it per family), and
// results are bit-identical to FitAll on the same data.
func FitAllSample(s *Sample, families ...Family) (*Comparison, error) {
	if s.N() == 0 {
		return nil, fmt.Errorf("fit all: %w", ErrInsufficientData)
	}
	if len(families) == 0 {
		families = StandardFamilies()
	}
	if _, err := s.ECDF(); err != nil {
		return nil, fmt.Errorf("fit all: %w", err)
	}
	results := make([]FitResult, 0, len(families))
	for _, fam := range families {
		results = append(results, FitOne(fam, s))
	}
	return Rank(results), nil
}

// Rank orders results by NLL, best first, keeping the input order among
// equal scores, and wraps them as a Comparison. It sorts results in place.
func Rank(results []FitResult) *Comparison {
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].NLL < results[j].NLL
	})
	return &Comparison{Results: results}
}

// FitOne fits one family to the sample and scores it: NLL, AIC and the
// Kolmogorov–Smirnov distance to the sample's ECDF. A family that cannot
// be fitted, or whose fit gives no finite likelihood, is recorded with
// its error and +Inf NLL and AIC, so it ranks last.
func FitOne(f Family, s *Sample) FitResult {
	res := FitResult{Family: f}
	d, err := FitSample(f, s)
	if err != nil {
		res.Err = err
		res.NLL = math.Inf(1)
		res.AIC = math.Inf(1)
		res.KS = math.NaN()
		return res
	}
	res.Dist = d
	nll, err := NegLogLikelihoodSample(d, s)
	if err == nil && (math.IsNaN(nll) || math.IsInf(nll, 0)) {
		err = fmt.Errorf("fit %v: NLL %v: %w", f, nll, ErrBadParam)
	}
	if err != nil {
		res.Err = err
		res.NLL = math.Inf(1)
		res.AIC = math.Inf(1)
	} else {
		res.NLL = nll
		res.AIC = 2*float64(d.NumParams()) + 2*nll
	}
	ecdf, err := s.ECDF()
	if err != nil {
		res.KS = math.NaN()
		return res
	}
	res.KS = ecdf.KolmogorovSmirnov(d.CDF)
	return res
}

// Best returns the best successfully fitted result, or an error if every
// family failed.
func (c *Comparison) Best() (FitResult, error) {
	for _, r := range c.Results {
		if r.Err == nil {
			return r, nil
		}
	}
	return FitResult{}, fmt.Errorf("comparison: no family fitted: %w", ErrInsufficientData)
}

// ByFamily returns the result for a specific family.
func (c *Comparison) ByFamily(f Family) (FitResult, bool) {
	for _, r := range c.Results {
		if r.Family == f {
			return r, true
		}
	}
	return FitResult{}, false
}
