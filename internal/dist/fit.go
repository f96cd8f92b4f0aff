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

// FitSample fits the family by maximum likelihood, reusing the sample's
// precomputed transforms.
func FitSample(f Family, s *Sample) (Continuous, error) {
	r := newRefitter(f)
	if r == nil {
		return nil, fmt.Errorf("fit: unknown family %v: %w", f, ErrBadParam)
	}
	if err := r.refit(&s.t); err != nil {
		return nil, err
	}
	return r.fitted(), nil
}

// refitter is one family's maximum-likelihood fitter together with its
// solver state (score closures, EM buffers) and its latest fit. FitSample
// and both bootstrap rep loops fit through it; the loops build one per
// block and refit it once per rep without allocating.
type refitter interface {
	// refit fits the family to t, keeping the previous fit on error.
	refit(t *xform) error
	// fitted returns the latest fit.
	fitted() Continuous
	// cdf is the latest fit's CDF, called without boxing the fit.
	cdf(x float64) float64
	// appendParams appends the latest fit's ParamValues to out.
	appendParams(out []float64) []float64
}

// fittedDist is a distribution the refitter can hold unboxed.
type fittedDist interface {
	Continuous
	appendParams(out []float64) []float64
}

// kernel adapts a family's fit kernel to refitter.
type kernel[D fittedDist] struct {
	fit func(*xform) (D, error)
	d   D
}

func (k *kernel[D]) refit(t *xform) error {
	d, err := k.fit(t)
	if err != nil {
		return err
	}
	k.d = d
	return nil
}

func (k *kernel[D]) fitted() Continuous { return k.d }

func (k *kernel[D]) cdf(x float64) float64 { return k.d.CDF(x) }

func (k *kernel[D]) appendParams(out []float64) []float64 { return k.d.appendParams(out) }

// newRefitter builds the family's refitter, or returns nil for an unknown
// family.
func newRefitter(f Family) refitter {
	switch f {
	case FamilyExponential:
		return &kernel[Exponential]{fit: fitExponentialKernel}
	case FamilyWeibull:
		return &kernel[Weibull]{fit: newWeibullSolver().fit}
	case FamilyGamma:
		return &kernel[Gamma]{fit: newGammaSolver().fit}
	case FamilyLogNormal:
		return &kernel[LogNormal]{fit: fitLogNormalKernel}
	case FamilyNormal:
		return &kernel[Normal]{fit: fitNormalKernel}
	case FamilyPareto:
		return &kernel[Pareto]{fit: fitParetoKernel}
	case FamilyHyperExp:
		return &kernel[HyperExp]{fit: new(hyperExpSolver).fit}
	default:
		return nil
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
// recorded with their error rather than aborting the comparison. The data
// is validated and transformed once, into one Sample, for all families;
// with no families it uses the paper's standard four.
func FitAll(xs []float64, families ...Family) (*Comparison, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fit all: %w", ErrInsufficientData)
	}
	s := NewSample(xs)
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
	nll, err := NegLogLikelihood(d, s.t.xs)
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
