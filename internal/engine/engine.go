// Package engine is the concurrent analysis pipeline behind every
// distribution-fitting front-end in the repository. It fans maximum-
// likelihood fits, negative-log-likelihood comparisons and nonparametric
// bootstrap confidence intervals out across a bounded worker pool, memoizes
// every fit by (sample hash, family, options) so repeated invocations reuse
// results, and merges shard results in a deterministic order — the output
// of a run is byte-for-byte independent of the worker count.
//
// Determinism is engineered in three places:
//
//   - every bootstrap task derives its random seed from (engine seed,
//     sample hash, family), never from scheduling order;
//   - shard results are written into a position-indexed slice, so the merge
//     order is the shard enumeration order regardless of completion order;
//   - memoized entries are computed exactly once (sync.Once) and the cached
//     value is what every caller sees.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hpcfail/internal/dist"
	"hpcfail/internal/stats"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the concurrent fit workers; <= 0 uses GOMAXPROCS.
	Workers int
	// BootstrapReps is the number of bootstrap resamples (B) behind every
	// confidence interval. 0 uses 200; negative disables interval
	// computation in AnalyzeFleet (FitCI still accepts explicit calls).
	BootstrapReps int
	// Level is the confidence level for bootstrap intervals; 0 uses 0.95.
	Level float64
	// Seed is the base seed for bootstrap resampling. Each task reseeds
	// deterministically from (Seed, sample hash, family), so results do not
	// depend on worker scheduling.
	Seed int64
}

// Engine is a concurrent, memoizing distribution-fitting pipeline. It is
// safe for use from multiple goroutines. Construct with New.
type Engine struct {
	workers int
	reps    int
	level   float64
	seed    int64
	// enumOrder disables largest-first dispatch (tests only): shards are
	// fed in enumeration order, proving ordering never changes output.
	enumOrder bool

	mu      sync.Mutex
	fits    map[fitKey][]*fitEntry
	cis     map[fitKey][]*ciEntry
	samples map[uint64][]*sampleEntry

	hits, misses atomic.Uint64
	collisions   atomic.Uint64
}

type fitKey struct {
	hash   uint64
	family dist.Family
}

// fingerprint is the cheap identity check layered over the FNV-1a hash:
// sample length plus the raw bits of the first and last observations. Two
// samples that collide on the 64-bit hash are overwhelmingly unlikely to
// also agree on all three, so a hash hit is only trusted when the
// fingerprint matches; mismatches chain instead of silently reusing a
// wrong fit.
type fingerprint struct {
	n           int
	first, last uint64
}

func fingerprintOf(xs []float64) fingerprint {
	if len(xs) == 0 {
		return fingerprint{}
	}
	return fingerprint{
		n:     len(xs),
		first: math.Float64bits(xs[0]),
		last:  math.Float64bits(xs[len(xs)-1]),
	}
}

type fitEntry struct {
	fp   fingerprint
	once sync.Once
	res  dist.FitResult
}

type ciEntry struct {
	fp   fingerprint
	once sync.Once
	// done flips true after once ran, letting the sub-shard pipeline skip
	// scheduling rep blocks for intervals an earlier analysis computed.
	done atomic.Bool
	dist dist.Continuous
	cis  []dist.ParamCI
	err  error
}

type sampleEntry struct {
	fp fingerprint
	s  *dist.Sample
}

// New returns an Engine for the given options.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.BootstrapReps == 0 {
		opts.BootstrapReps = 200
	}
	if opts.Level == 0 {
		opts.Level = 0.95
	}
	return &Engine{
		workers: opts.Workers,
		reps:    opts.BootstrapReps,
		level:   opts.Level,
		seed:    opts.Seed,
		fits:    make(map[fitKey][]*fitEntry),
		cis:     make(map[fitKey][]*ciEntry),
		samples: make(map[uint64][]*sampleEntry),
	}
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// BootstrapReps returns the configured bootstrap replication count;
// negative means intervals are disabled.
func (e *Engine) BootstrapReps() int { return e.reps }

// Level returns the confidence level of the bootstrap intervals.
func (e *Engine) Level() float64 { return e.level }

// Stats reports memoization effectiveness: cache hits and misses across
// fit and interval lookups.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Collisions reports how many cache lookups found a same-hash entry whose
// sample fingerprint differed — FNV-1a collisions that were detected and
// chained rather than silently reusing another sample's result.
func (e *Engine) Collisions() uint64 { return e.collisions.Load() }

// taskSeed derives the deterministic bootstrap seed of one (sample, family)
// task. Mixing the sample hash and family into the engine seed makes the
// seed a property of the task, not of when or where it runs.
func (e *Engine) taskSeed(hash uint64, f dist.Family) int64 {
	h := uint64(e.seed) ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{hash, uint64(f)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return int64(h)
}

// Intern returns the engine's shared precomputed Sample for xs, building it
// on first use. Samples are keyed by FNV-1a hash with a fingerprint check
// (length, first and last bits) so that fleet analyses fitting the same
// shard sample through several families and bootstrap passes pay for the
// transforms — log cache, sums, sorted order, ECDF — exactly once.
func (e *Engine) Intern(xs []float64) *dist.Sample {
	hash := stats.HashSample(xs)
	fp := fingerprintOf(xs)
	e.mu.Lock()
	for _, ent := range e.samples[hash] {
		if ent.fp == fp {
			e.mu.Unlock()
			return ent.s
		}
	}
	e.mu.Unlock()
	// Build outside the lock; the transforms are O(n).
	s := dist.NewSamplePrehashed(xs, hash)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.samples[hash] {
		if ent.fp == fp {
			return ent.s
		}
	}
	if len(e.samples[hash]) > 0 {
		e.collisions.Add(1)
	}
	e.samples[hash] = append(e.samples[hash], &sampleEntry{fp: fp, s: s})
	return s
}

// fitOne returns the memoized fit of one family to one sample, computing it
// on first use. The returned FitResult mirrors dist.FitAll's per-family
// bookkeeping (NLL, AIC, KS, or the fit error). A hash hit is only reused
// after the sample fingerprint matches; colliding samples chain.
func (e *Engine) fitOne(s *dist.Sample, f dist.Family) dist.FitResult {
	key := fitKey{hash: s.Hash(), family: f}
	fp := fingerprintOf(s.Values())
	e.mu.Lock()
	var ent *fitEntry
	bucket := e.fits[key]
	for _, c := range bucket {
		if c.fp == fp {
			ent = c
			break
		}
	}
	hit := ent != nil
	if !hit {
		if len(bucket) > 0 {
			e.collisions.Add(1)
		}
		ent = &fitEntry{fp: fp}
		e.fits[key] = append(bucket, ent)
	}
	e.mu.Unlock()
	if hit {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	ent.once.Do(func() {
		ent.res = e.computeFit(s, f)
	})
	return ent.res
}

func (e *Engine) computeFit(s *dist.Sample, f dist.Family) dist.FitResult {
	res := dist.FitResult{Family: f}
	d, err := dist.FitSample(f, s)
	if err != nil {
		res.Err = err
		res.NLL = math.Inf(1)
		res.AIC = math.Inf(1)
		res.KS = math.NaN()
		return res
	}
	res.Dist = d
	nll, err := dist.NegLogLikelihoodSample(d, s)
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

// FitAll fits each requested family to xs and ranks the results by NLL,
// exactly as dist.FitAll does, but with every per-family fit memoized by
// (sample hash, family). With no families it fits the paper's standard
// four. It interns xs; use FitAllSample when the caller already holds a
// Sample.
func (e *Engine) FitAll(ctx context.Context, xs []float64, families ...dist.Family) (*dist.Comparison, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("engine fit all: %w", dist.ErrInsufficientData)
	}
	return e.FitAllSample(ctx, e.Intern(xs), families...)
}

// FitAllSample is FitAll over a shared precomputed sample. The comparison
// is rebuilt per call so callers may mutate their copy; the underlying fits
// are shared.
func (e *Engine) FitAllSample(ctx context.Context, s *dist.Sample, families ...dist.Family) (*dist.Comparison, error) {
	if s.N() == 0 {
		return nil, fmt.Errorf("engine fit all: %w", dist.ErrInsufficientData)
	}
	if len(families) == 0 {
		families = dist.StandardFamilies()
	}
	if _, err := s.ECDF(); err != nil {
		return nil, fmt.Errorf("engine fit all: %w", err)
	}
	results := make([]dist.FitResult, 0, len(families))
	for _, f := range families {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		results = append(results, e.fitOne(s, f))
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].NLL < results[j].NLL
	})
	return &dist.Comparison{Results: results}, nil
}

// FitCI returns the memoized fit of one family together with seeded
// percentile-bootstrap confidence intervals for every fitted parameter.
// The bootstrap seed derives from (engine seed, sample hash, family), so
// the intervals are identical at any worker count and across runs. It
// interns xs; use FitCISample when the caller already holds a Sample.
func (e *Engine) FitCI(ctx context.Context, xs []float64, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	return e.FitCISample(ctx, e.Intern(xs), f)
}

// lookupCI returns the memoized interval entry for (sample, family),
// installing an empty one on first sight. count controls hit/miss
// accounting: caller-facing lookups count, the sub-shard pipeline's
// internal pre-pass does not (assembly re-looks the same entries up, and
// double counting would skew the benchmark's cache-rate report).
func (e *Engine) lookupCI(s *dist.Sample, f dist.Family, count bool) (ent *ciEntry, hit bool) {
	key := fitKey{hash: s.Hash(), family: f}
	fp := fingerprintOf(s.Values())
	e.mu.Lock()
	bucket := e.cis[key]
	for _, c := range bucket {
		if c.fp == fp {
			ent = c
			break
		}
	}
	hit = ent != nil
	if !hit {
		if len(bucket) > 0 {
			e.collisions.Add(1)
		}
		ent = &ciEntry{fp: fp}
		e.cis[key] = append(bucket, ent)
	}
	e.mu.Unlock()
	if count {
		if hit {
			e.hits.Add(1)
		} else {
			e.misses.Add(1)
		}
	}
	return ent, hit
}

// FitCISample is FitCI over a shared precomputed sample, feeding the
// zero-allocation bootstrap kernel directly from the sample's cached
// transforms.
func (e *Engine) FitCISample(ctx context.Context, s *dist.Sample, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	reps := e.reps
	if reps < 0 {
		return nil, nil, fmt.Errorf("engine fit CI %v: bootstrap disabled (reps %d)", f, reps)
	}
	ent, _ := e.lookupCI(s, f, true)
	ent.once.Do(func() {
		ent.dist, ent.cis, ent.err = dist.FitCISample(f, s, reps, e.level, e.taskSeed(s.Hash(), f))
		ent.done.Store(true)
	})
	return ent.dist, ent.cis, ent.err
}
