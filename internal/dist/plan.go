package dist

import (
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/randx"
	"hpcfail/internal/stats"
)

// Counter-seeded bootstrap plans.
//
// A bootstrap that draws all B reps from one advancing source cannot run
// rep r until reps 0..r-1 have consumed their draws — the whole loop is
// one task. The plan API breaks that: rep r's source state is a pure
// function of (plan seed, r), derived by FNV-1a exactly like
// internal/sweep's replicate seeds, so any contiguous block of reps can
// run on any worker in any order. Merging the blocks in rep-index order
// reproduces the single-threaded result bit for bit at every worker count.
//
// The lifecycle is NewCIPlan (validate + point fit, once) → RunBlock (any
// worker, any order; one scratch buffer and one reseedable source per
// block, zero allocations per rep) → Merge (rep-index order, quantile
// epilogue). FitCISample and BootstrapKSTestSample are now the one-block
// degenerate form of the same pipeline.

// repSeed derives the deterministic seed of bootstrap rep r from the plan
// seed, by FNV-1a over the little-endian bytes of both — the same
// counter-seeding discipline internal/sweep applies to replicate indexes.
func repSeed(seed int64, rep int) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{uint64(seed), uint64(rep)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return int64(h)
}

// CIPlan is a prepared percentile-bootstrap confidence-interval
// computation whose reps can be partitioned into blocks and run on any
// workers in any order. Build with NewCIPlan; the plan itself is
// immutable and safe for concurrent RunBlock calls.
type CIPlan struct {
	family    Family
	s         *Sample
	fitted    Continuous
	names     []string
	estimates []float64
	reps      int
	level     float64
	seed      int64
}

// CIBlock is the result of running reps [Lo, Hi) of a CIPlan: the fitted
// parameter vectors of the non-degenerate reps, concatenated in rep order
// (OK vectors of len(plan parameters) each).
type CIBlock struct {
	Lo, Hi int
	// OK counts the reps in [Lo, Hi) whose resample refitted.
	OK int
	// Vals holds OK parameter vectors back to back, in rep order.
	Vals []float64
}

// NewCIPlan validates the request and fits the family to the original
// sample — everything FitCISample does before its rep loop. reps <= 0 uses
// 200; level is the confidence level.
func NewCIPlan(f Family, s *Sample, reps int, level float64, seed int64) (*CIPlan, error) {
	if level <= 0 || level >= 1 {
		return nil, fmt.Errorf("fit CI %v: level %g outside (0, 1): %w", f, level, ErrBadParam)
	}
	if reps <= 0 {
		reps = 200
	}
	fitted, err := FitSample(f, s)
	if err != nil {
		return nil, fmt.Errorf("fit CI %v: %w", f, err)
	}
	params, ok := fitted.(Parameterized)
	if !ok {
		return nil, fmt.Errorf("fit CI %v: %T does not expose parameters: %w", f, fitted, ErrUnsupported)
	}
	names := params.ParamNames()
	estimates := params.ParamValues()
	if len(names) != len(estimates) {
		return nil, fmt.Errorf("fit CI %v: %d names vs %d values", f, len(names), len(estimates))
	}
	if newRefitFn(f) == nil {
		return nil, fmt.Errorf("fit CI %v: no bootstrap kernel: %w", f, ErrUnsupported)
	}
	return &CIPlan{
		family:    f,
		s:         s,
		fitted:    fitted,
		names:     names,
		estimates: estimates,
		reps:      reps,
		level:     level,
		seed:      seed,
	}, nil
}

// Reps returns the effective replication count the plan will run.
func (p *CIPlan) Reps() int { return p.reps }

// RunBlock executes reps [lo, hi). Each rep reseeds the block's source
// from repSeed(plan seed, rep) and gathers/refits exactly as the
// sequential loop did, so the rep's parameter vector does not depend on
// which block, worker or order ran it. Solver state and scratch buffers
// are per block: reps themselves stay allocation-free.
func (p *CIPlan) RunBlock(lo, hi int) CIBlock {
	k := len(p.names)
	blk := CIBlock{Lo: lo, Hi: hi, Vals: make([]float64, 0, (hi-lo)*k)}
	refit := newRefitFn(p.family)
	src := randx.NewSource(0)
	var scratch xform
	vals := make([]float64, 0, k)
	for r := lo; r < hi; r++ {
		src.Reseed(repSeed(p.seed, r))
		scratch.gather(&p.s.t, src)
		var ok bool
		vals, ok = refit(&scratch, vals[:0])
		if !ok {
			continue // degenerate resample
		}
		blk.Vals = append(blk.Vals, vals...)
		blk.OK++
	}
	return blk
}

// Merge combines blocks covering [0, reps) exactly once, in any input
// order, and computes the percentile intervals. The degenerate-resample
// threshold (fitOK < (reps+1)/2) counts across all blocks, so the outcome
// is identical however the reps were partitioned.
func (p *CIPlan) Merge(blocks []CIBlock) (Continuous, []ParamCI, error) {
	k := len(p.names)
	ordered, fitOK, err := orderBlocks(len(blocks), p.reps, func(i int) (lo, hi, ok, vals int) {
		b := &blocks[i]
		return b.Lo, b.Hi, b.OK, len(b.Vals) / k
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fit CI %v: %w", p.family, err)
	}
	if fitOK < (p.reps+1)/2 {
		return nil, nil, fmt.Errorf("fit CI %v: only %d of %d resamples fitted: %w",
			p.family, fitOK, p.reps, ErrInsufficientData)
	}
	resampled := make([][]float64, k)
	for i := range resampled {
		resampled[i] = make([]float64, 0, fitOK)
	}
	for _, bi := range ordered {
		b := &blocks[bi]
		for j := 0; j < b.OK; j++ {
			for i := 0; i < k; i++ {
				resampled[i] = append(resampled[i], b.Vals[j*k+i])
			}
		}
	}
	alpha := (1 - p.level) / 2
	cis := make([]ParamCI, k)
	for i, name := range p.names {
		lo, err := stats.Quantile(resampled[i], alpha)
		if err != nil {
			return nil, nil, fmt.Errorf("fit CI %v %s: %w", p.family, name, err)
		}
		hi, err := stats.Quantile(resampled[i], 1-alpha)
		if err != nil {
			return nil, nil, fmt.Errorf("fit CI %v %s: %w", p.family, name, err)
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return nil, nil, fmt.Errorf("fit CI %v: NaN bound for %s", p.family, name)
		}
		cis[i] = ParamCI{Name: name, Estimate: p.estimates[i], Lo: lo, Hi: hi}
	}
	return p.fitted, cis, nil
}

// orderBlocks validates that n blocks tile [0, reps) exactly — no gap, no
// overlap, per-block value counts consistent — and returns the block
// indexes in ascending rep order plus the total OK count. The caller's
// accessor reports block i's bounds, OK count and stored vector count.
func orderBlocks(n, reps int, at func(i int) (lo, hi, ok, vals int)) ([]int, int, error) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by Lo: block counts are small (tens at most).
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			lj, _, _, _ := at(idx[j])
			lp, _, _, _ := at(idx[j-1])
			if lj >= lp {
				break
			}
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	next, total := 0, 0
	for _, i := range idx {
		lo, hi, ok, vals := at(i)
		if lo != next || hi < lo {
			return nil, 0, fmt.Errorf("bootstrap blocks do not tile [0, %d): block [%d, %d) after rep %d", reps, lo, hi, next)
		}
		if ok < 0 || ok > hi-lo || vals != ok {
			return nil, 0, fmt.Errorf("bootstrap block [%d, %d): %d ok reps vs %d stored", lo, hi, ok, vals)
		}
		next = hi
		total += ok
	}
	if next != reps {
		return nil, 0, fmt.Errorf("bootstrap blocks cover [0, %d) of [0, %d)", next, reps)
	}
	return idx, total, nil
}

// KSPlan is a prepared parametric-bootstrap KS test whose replications can
// be partitioned into blocks and run on any workers in any order. Build
// with NewKSPlan; the plan is immutable and safe for concurrent RunBlock
// calls.
type KSPlan struct {
	family   Family
	s        *Sample
	fitted   Continuous
	observed float64
	reps     int
	seed     int64
}

// KSBlock is the result of running replications [Lo, Hi) of a KSPlan.
type KSBlock struct {
	Lo, Hi int
	// Exceed counts successful replications whose refitted KS statistic
	// was at least the observed one; OK counts successful replications.
	Exceed, OK int
}

// NewKSPlan validates the request, fits the family and measures the
// observed KS statistic — everything BootstrapKSTestSample does before its
// replication loop. reps <= 0 uses 200.
func NewKSPlan(f Family, s *Sample, reps int, seed int64) (*KSPlan, error) {
	if s.N() < 5 {
		return nil, fmt.Errorf("bootstrap KS: need >= 5 observations: %w", ErrInsufficientData)
	}
	if reps <= 0 {
		reps = 200
	}
	switch f {
	case FamilyExponential, FamilyWeibull, FamilyGamma, FamilyLogNormal, FamilyNormal, FamilyPareto, FamilyHyperExp:
	default:
		return nil, fmt.Errorf("bootstrap KS: unknown family %v: %w", f, ErrBadParam)
	}
	fitted, err := FitSample(f, s)
	if err != nil {
		return nil, fmt.Errorf("bootstrap KS: %w", err)
	}
	ecdf, err := s.ECDF()
	if err != nil {
		return nil, fmt.Errorf("bootstrap KS: %w", err)
	}
	return &KSPlan{
		family:   f,
		s:        s,
		fitted:   fitted,
		observed: ecdf.KolmogorovSmirnov(fitted.CDF),
		reps:     reps,
		seed:     seed,
	}, nil
}

// Reps returns the effective replication count the plan will run.
func (p *KSPlan) Reps() int { return p.reps }

// RunBlock executes replications [lo, hi), reseeding per replication from
// repSeed(plan seed, rep) so the block decomposition never changes the
// draws.
func (p *KSPlan) RunBlock(lo, hi int) KSBlock {
	blk := KSBlock{Lo: lo, Hi: hi}
	src := randx.NewSource(0)
	switch p.family {
	case FamilyExponential:
		blk.Exceed, blk.OK = ksBlock(p.fitted.(Exponential), fitExponentialKernel, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyWeibull:
		sv := newWeibullSolver()
		blk.Exceed, blk.OK = ksBlock(p.fitted.(Weibull), sv.fit, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyGamma:
		sv := newGammaSolver()
		blk.Exceed, blk.OK = ksBlock(p.fitted.(Gamma), sv.fit, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyLogNormal:
		blk.Exceed, blk.OK = ksBlock(p.fitted.(LogNormal), fitLogNormalKernel, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyNormal:
		blk.Exceed, blk.OK = ksBlock(p.fitted.(Normal), fitNormalKernel, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyPareto:
		blk.Exceed, blk.OK = ksBlock(p.fitted.(Pareto), fitParetoKernel, p.s.N(), lo, hi, p.seed, src, p.observed)
	case FamilyHyperExp:
		sv := &hyperExpSolver{}
		refit := func(t *xform) (HyperExp, error) { return sv.fit(t, 0) }
		blk.Exceed, blk.OK = ksBlock(p.fitted.(HyperExp), refit, p.s.N(), lo, hi, p.seed, src, p.observed)
	}
	return blk
}

// Merge combines blocks covering [0, reps) exactly once and forms the
// p-value. Exceed/OK are plain sums, so partitioning cannot change them;
// the every-replication-failed check counts across all blocks.
func (p *KSPlan) Merge(blocks []KSBlock) (KSTestResult, error) {
	_, _, err := orderBlocks(len(blocks), p.reps, func(i int) (lo, hi, ok, vals int) {
		b := &blocks[i]
		return b.Lo, b.Hi, b.OK, b.OK
	})
	if err != nil {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: %w", err)
	}
	var exceed, ok int
	for _, b := range blocks {
		exceed += b.Exceed
		ok += b.OK
	}
	if ok == 0 {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: every replication failed: %w", ErrInsufficientData)
	}
	p2 := float64(exceed) / float64(ok)
	if math.IsNaN(p2) {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: NaN p-value")
	}
	return KSTestResult{
		Family:       p.family,
		Dist:         p.fitted,
		KS:           p.observed,
		P:            p2,
		Replications: ok,
	}, nil
}

// ksBlock runs KS replications [lo, hi) for one concrete family, one
// reseed per replication. The generic instantiation devirtualizes Rand and
// CDF; the draws and the statistic carry the same bits as fitted.Rand and
// stats.ECDF.KolmogorovSmirnov through the Continuous interface.
func ksBlock[D Continuous](fitted D, refit func(*xform) (D, error), n, lo, hi int, seed int64, src *randx.Source, observed float64) (exceed, ok int) {
	var scratch xform
	scratch.xs = growFloats(scratch.xs, n)
	sorted := make([]float64, n)
	for r := lo; r < hi; r++ {
		src.Reseed(repSeed(seed, r))
		for i := range scratch.xs {
			scratch.xs[i] = fitted.Rand(src)
		}
		scratch.scan()
		d, err := refit(&scratch)
		if err != nil {
			continue // a degenerate resample; skip it
		}
		copy(sorted, scratch.xs)
		sort.Float64s(sorted)
		ok++
		if ksStat(d, sorted) >= observed {
			exceed++
		}
	}
	return exceed, ok
}
