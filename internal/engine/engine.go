// Package engine is the concurrent analysis pipeline behind every
// distribution-fitting front-end in the repository. It fans maximum-
// likelihood fits, negative-log-likelihood comparisons and nonparametric
// bootstrap confidence intervals out across a bounded worker pool, fits
// each distinct sample once per call however many shards hold it, and
// merges shard results in a deterministic order — the output of a run is
// byte-for-byte independent of the worker count.
//
// Determinism is engineered in three places:
//
//   - every bootstrap task derives its random seed from (engine seed,
//     sample hash, family), never from scheduling order;
//   - shard results are written into a position-indexed slice, so the merge
//     order is the shard enumeration order regardless of completion order;
//   - a call's fit table is built sequentially, and each fit and interval
//     lands in one slot of it that every shard holding the sample reads.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"hpcfail/internal/dist"
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

// Engine is a concurrent distribution-fitting pipeline: configuration
// plus work counters. It holds no fit state between calls, so it is safe
// for use from multiple goroutines and its memory does not grow with
// use. Construct with New.
type Engine struct {
	workers int
	reps    int
	level   float64
	seed    int64
	// enumOrder disables largest-first dispatch (tests only): shards are
	// fed in enumeration order, proving ordering never changes output.
	enumOrder bool

	hits, misses atomic.Uint64
	collisions   atomic.Uint64
	// liveSamples counts the fit samples (dist.Sample) the engine's calls
	// hold at once, and peakSamples is its high-water mark.
	liveSamples, peakSamples atomic.Int64
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
	}
}

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// BootstrapReps returns the configured bootstrap replication count;
// negative means intervals are disabled.
func (e *Engine) BootstrapReps() int { return e.reps }

// Level returns the confidence level of the bootstrap intervals.
func (e *Engine) Level() float64 { return e.level }

// Stats reports the engine's fitting work: misses counts the fits and
// bootstrap intervals it computed, hits the requests a call served from
// another shard holding the same sample.
func (e *Engine) Stats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Collisions reports how many samples hashed equal to another sample of
// the same call but held different values. Each was kept apart and fitted
// on its own.
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

// FitCI fits one family and attaches seeded percentile-bootstrap
// confidence intervals for every fitted parameter. The bootstrap seed
// derives from (engine seed, sample hash, family), so the intervals are
// identical at any worker count and across runs. Use FitCISample when the
// caller already holds a Sample.
func (e *Engine) FitCI(ctx context.Context, xs []float64, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	return e.FitCISample(ctx, dist.NewSample(xs), f)
}

// FitCISample is FitCI over a precomputed sample, feeding the
// zero-allocation bootstrap kernel directly from the sample's cached
// transforms.
func (e *Engine) FitCISample(ctx context.Context, s *dist.Sample, f dist.Family) (dist.Continuous, []dist.ParamCI, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if e.reps < 0 {
		return nil, nil, fmt.Errorf("engine fit CI %v: bootstrap disabled (reps %d)", f, e.reps)
	}
	e.misses.Add(1)
	return dist.FitCISample(f, s, e.reps, e.level, e.taskSeed(s.Hash(), f))
}

// fitTable is the fit state of one analysis call: its distinct samples,
// chained under their stats.HashSample value. It lives only as long as
// the call that builds it.
type fitTable map[uint64][]*tableEntry

// tableEntry is one distinct sample of a call and what was fitted to it:
// xs and hash are the sample's values and stats.HashSample, s its
// dist.Sample while a task holds it (nil before its fit task and once
// dropped), fits[k] the fit of the k-th standard family, ecdfErr the
// sample's ECDF error, and cis[k] the interval target of its k-th CI
// family (nil when none was requested).
type tableEntry struct {
	xs      []float64
	hash    uint64
	s       *dist.Sample
	fits    []dist.FitResult
	ecdfErr error
	cis     []*ciTarget
}

// ciReady reports whether the fit in slot fk succeeded, so an interval
// can be drawn for its family; fk < 0 marks a family that is not fitted.
func (ent *tableEntry) ciReady(fk int) bool {
	return fk >= 0 && ent.fits[fk].Err == nil
}

// holdSample counts one more live fit sample and raises the high-water
// mark to match.
func (e *Engine) holdSample() {
	n := e.liveSamples.Add(1)
	for {
		h := e.peakSamples.Load()
		if n <= h || e.peakSamples.CompareAndSwap(h, n) {
			return
		}
	}
}

// dropSample releases ent's Sample, if it still holds one.
func (e *Engine) dropSample(ent *tableEntry) {
	if ent.s != nil {
		ent.s = nil
		e.liveSamples.Add(-1)
	}
}

// intern returns the table's entry for the sample with values xs and
// stats.HashSample hash, adding one when the table has none; fresh
// reports an added entry. A same-hash entry is reused only when its
// values equal xs bit for bit. One whose values differ is a hash
// collision: it is counted and never returned.
func (e *Engine) intern(tab fitTable, xs []float64, hash uint64) (ent *tableEntry, fresh bool) {
	bucket := tab[hash]
	for _, c := range bucket {
		if sameBits(c.xs, xs) {
			return c, false
		}
	}
	if len(bucket) > 0 {
		e.collisions.Add(1)
	}
	ent = &tableEntry{xs: xs, hash: hash}
	tab[hash] = append(bucket, ent)
	return ent, true
}

// sameBits reports whether a and b hold the same values bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
