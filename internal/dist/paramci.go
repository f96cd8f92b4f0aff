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

// FitCISample fits a family by maximum likelihood and attaches a seeded
// nonparametric percentile-bootstrap confidence interval to every fitted
// parameter: resample the data with replacement, refit, and take the
// (alpha/2, 1-alpha/2) quantiles of each parameter's resampled estimates.
// The paper reports point estimates only ("Weibull shape parameter of
// 0.7-0.8"); the intervals quantify how tight such a statement is for a
// given sample, which is what turns the band into an assertable test.
// reps <= 0 uses 200 resamples; level is the confidence level (e.g. 0.95).
// The result is deterministic in (s, reps, level, seed). Every bootstrap
// rep is an index-resample that gathers values and cached logarithms from
// the sample's transforms into scratch buffers owned by the loop — no
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
