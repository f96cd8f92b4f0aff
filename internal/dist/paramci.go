package dist

// ParamCI is a bootstrap confidence interval for one fitted parameter.
type ParamCI struct {
	// Name identifies the parameter (e.g. "shape").
	Name string
	// Estimate is the fit on the original sample.
	Estimate float64
	// Lo and Hi bound the percentile-bootstrap interval.
	Lo, Hi float64
}

// Contains reports whether v lies inside [Lo, Hi].
func (c ParamCI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// Overlaps reports whether [Lo, Hi] intersects [lo, hi].
func (c ParamCI) Overlaps(lo, hi float64) bool { return c.Lo <= hi && lo <= c.Hi }

// FitCI fits a family by maximum likelihood and attaches a seeded
// nonparametric percentile-bootstrap confidence interval to every fitted
// parameter: resample the data with replacement, refit, and take the
// (alpha/2, 1-alpha/2) quantiles of each parameter's resampled estimates.
// The paper reports point estimates only ("Weibull shape parameter of
// 0.7-0.8"); the intervals quantify how tight such a statement is for a
// given sample, which is what turns the band into an assertable test.
// reps <= 0 uses 200 resamples; level is the confidence level (e.g. 0.95).
// The result is deterministic in (xs, reps, level, seed). It builds a
// Sample per call; use FitCISample to amortize the transforms.
func FitCI(f Family, xs []float64, reps int, level float64, seed int64) (Continuous, []ParamCI, error) {
	return FitCISample(f, NewSample(xs), reps, level, seed)
}

// refitFn refits one family to a gathered resample, appending the fitted
// parameter values (in ParamNames order) to out. ok is false for a
// degenerate resample the bootstrap skips, exactly where FitSample would
// have errored.
type refitFn func(t *xform, out []float64) ([]float64, bool)

// newRefitFn builds the family's bootstrap refitter, hoisting solver state
// (score closures, EM buffers) out of the rep loop so each rep is
// allocation-free.
func newRefitFn(f Family) refitFn {
	switch f {
	case FamilyExponential:
		return func(t *xform, out []float64) ([]float64, bool) {
			e, err := fitExponentialKernel(t)
			if err != nil {
				return out, false
			}
			return append(out, e.rate), true
		}
	case FamilyWeibull:
		sv := newWeibullSolver()
		return func(t *xform, out []float64) ([]float64, bool) {
			w, err := sv.fit(t)
			if err != nil {
				return out, false
			}
			return append(out, w.shape, w.scale), true
		}
	case FamilyGamma:
		sv := newGammaSolver()
		return func(t *xform, out []float64) ([]float64, bool) {
			g, err := sv.fit(t)
			if err != nil {
				return out, false
			}
			return append(out, g.shape, g.scale), true
		}
	case FamilyLogNormal:
		return func(t *xform, out []float64) ([]float64, bool) {
			l, err := fitLogNormalKernel(t)
			if err != nil {
				return out, false
			}
			return append(out, l.mu, l.sigma), true
		}
	case FamilyNormal:
		return func(t *xform, out []float64) ([]float64, bool) {
			n, err := fitNormalKernel(t)
			if err != nil {
				return out, false
			}
			return append(out, n.mu, n.sigma), true
		}
	case FamilyPareto:
		return func(t *xform, out []float64) ([]float64, bool) {
			p, err := fitParetoKernel(t)
			if err != nil {
				return out, false
			}
			return append(out, p.xm, p.alpha), true
		}
	case FamilyHyperExp:
		sv := &hyperExpSolver{}
		return func(t *xform, out []float64) ([]float64, bool) {
			h, err := sv.fit(t, 0)
			if err != nil {
				return out, false
			}
			return append(out, h.p, h.rate1, h.rate2), true
		}
	default:
		return nil
	}
}

// FitCISample is FitCI over a precomputed sample. Every bootstrap rep is an
// index-resample that gathers values and cached logarithms from the
// sample's transforms into scratch buffers owned by the loop — no
// re-walking, no per-rep slice allocation, no interface boxing — and the
// family kernels refit from the gathered transforms. Each rep draws from
// its own counter-derived seed (FNV-1a over the task seed and the rep
// index), so this one-block call is bit-identical to any partition of the
// same reps across workers via CIPlan.RunBlock, and to a rep loop that
// refits each reseeded resample with RefFit.
func FitCISample(f Family, s *Sample, reps int, level float64, seed int64) (Continuous, []ParamCI, error) {
	p, err := NewCIPlan(f, s, reps, level, seed)
	if err != nil {
		return nil, nil, err
	}
	return p.Merge([]CIBlock{p.RunBlock(0, p.reps)})
}
