package dist

import (
	"fmt"
	"math"

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
// worker, any order; one scratch buffer, one refitter and one reseedable
// source per block, zero allocations per rep) → Merge (rep-index order,
// quantile epilogue). FitCISample is the one-block degenerate form of the
// same pipeline; BootstrapKSTest seeds its reps the same way.

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
	blk := CIBlock{Lo: lo, Hi: hi, Vals: make([]float64, 0, (hi-lo)*len(p.names))}
	fit := newRefitter(p.family)
	src := randx.NewSource(0)
	var scratch xform
	for r := lo; r < hi; r++ {
		src.Reseed(repSeed(p.seed, r))
		scratch.gather(&p.s.t, src)
		if fit.refit(&scratch) != nil {
			continue // degenerate resample
		}
		blk.Vals = fit.appendParams(blk.Vals)
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
	ordered, fitOK, err := orderBlocks(blocks, p.reps, k)
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
	for _, b := range ordered {
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

// orderBlocks validates that the blocks tile [0, reps) exactly — no gap,
// no overlap, each block holding OK vectors of k values — and returns
// them in ascending rep order plus the total OK count.
func orderBlocks(blocks []CIBlock, reps, k int) ([]CIBlock, int, error) {
	ordered := make([]CIBlock, len(blocks))
	copy(ordered, blocks)
	// Insertion sort by Lo: block counts are small (tens at most).
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Lo < ordered[j-1].Lo; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	next, total := 0, 0
	for _, b := range ordered {
		if b.Lo != next || b.Hi < b.Lo {
			return nil, 0, fmt.Errorf("bootstrap blocks do not tile [0, %d): block [%d, %d) after rep %d", reps, b.Lo, b.Hi, next)
		}
		if vals := len(b.Vals) / k; b.OK < 0 || b.OK > b.Hi-b.Lo || vals != b.OK {
			return nil, 0, fmt.Errorf("bootstrap block [%d, %d): %d ok reps vs %d stored", b.Lo, b.Hi, b.OK, vals)
		}
		next = b.Hi
		total += b.OK
	}
	if next != reps {
		return nil, 0, fmt.Errorf("bootstrap blocks cover [0, %d) of [0, %d)", next, reps)
	}
	return ordered, total, nil
}
