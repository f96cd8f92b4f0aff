package engine

import (
	"context"
	"fmt"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/streamstats"
)

// RecordSource yields failure records one at a time. failures.Scanner
// implements it; tests and benchmarks can substitute synthetic sources.
type RecordSource interface {
	Scan() bool
	Record() failures.Record
	Err() error
}

// BatchSource is an optional extension of RecordSource for decoders
// that naturally produce records a block at a time (tracefmt.Scanner).
// ScanBatch returns the next non-empty run of records, or (nil, nil) at
// a clean end; the returned slice is only valid until the next call. AnalyzeStream type-asserts for this and
// folds whole batches, skipping the per-record interface round trip —
// results are identical to the record-at-a-time path because folding
// is sequential either way.
type BatchSource interface {
	RecordSource
	ScanBatch() ([]failures.Record, error)
}

// StreamOptions configures AnalyzeStream.
type StreamOptions struct {
	// Spec controls sharding and fitting exactly as in AnalyzeFleet.
	Spec ShardSpec
	// SketchEpsilon is the quantile sketch's relative accuracy; <= 0 uses
	// streamstats.DefaultSketchEpsilon.
	SketchEpsilon float64
	// ReservoirSize caps the per-shard fitting subsample; <= 0 uses
	// streamstats.DefaultReservoirSize.
	ReservoirSize int
}

// StreamInfo reports what one streaming pass saw.
type StreamInfo struct {
	// RecordsScanned is the number of records consumed from the source.
	RecordsScanned int
	// OutOfOrder counts records whose start time preceded the previous
	// record's within the same shard. Streaming interarrivals assume a
	// start-time-sorted trace (WriteCSV emits one); out-of-order records
	// yield non-positive deltas, which are dropped exactly like the
	// simultaneous failures the in-memory path drops, but a large count
	// means the input was unsorted and the interarrival studies are not
	// comparable to AnalyzeFleet's.
	OutOfOrder int
	// SketchEpsilon and ReservoirSize echo the effective configuration.
	SketchEpsilon float64
	ReservoirSize int
}

// info returns the StreamInfo of a pass that has seen nothing yet, with
// the defaults of unset sketch and reservoir options filled in.
func (o StreamOptions) info() StreamInfo {
	info := StreamInfo{SketchEpsilon: o.SketchEpsilon, ReservoirSize: o.ReservoirSize}
	if info.SketchEpsilon <= 0 {
		info.SketchEpsilon = streamstats.DefaultSketchEpsilon
	}
	if info.ReservoirSize <= 0 {
		info.ReservoirSize = streamstats.DefaultReservoirSize
	}
	return info
}

// shardAccum is the O(1)-memory state of one shard during a streaming
// pass: counts, the first/previous start times for rate and interarrival
// accounting, and one streaming accumulator per sample kind.
type shardAccum struct {
	records    int
	haveLast   bool
	firstStart time.Time
	lastStart  time.Time
	outOfOrder int
	inter      *streamstats.Accumulator
	repair     *streamstats.Accumulator
}

// freeze returns a read-only deep copy for query-path fitting: identical
// counts, summaries and subsamples at O(sample) cost. See
// streamstats.Accumulator.Freeze for why the copy must not be added to.
func (a *shardAccum) freeze() *shardAccum {
	c := *a
	c.inter = a.inter.Freeze()
	c.repair = a.repair.Freeze()
	return &c
}

// shardSeed derives the deterministic reservoir seed of one (shard,
// sample-kind) accumulator from the engine seed, so a streaming run's
// subsamples — and therefore its fits — are reproducible regardless of
// how the records arrive.
func (e *Engine) shardSeed(key ShardKey, kind uint64) int64 {
	h := uint64(e.seed) ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{uint64(key.System), uint64(key.Workload), uint64(key.Cause), kind} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return int64(h)
}

func (e *Engine) newShardAccum(key ShardKey, opts StreamOptions) (*shardAccum, error) {
	inter, err := streamstats.NewAccumulator(streamstats.Config{
		SketchEpsilon: opts.SketchEpsilon,
		ReservoirSize: opts.ReservoirSize,
		Seed:          e.shardSeed(key, 1),
	})
	if err != nil {
		return nil, err
	}
	repair, err := streamstats.NewAccumulator(streamstats.Config{
		SketchEpsilon: opts.SketchEpsilon,
		ReservoirSize: opts.ReservoirSize,
		Seed:          e.shardSeed(key, 2),
	})
	if err != nil {
		return nil, err
	}
	return &shardAccum{inter: inter, repair: repair}, nil
}

// add folds one record into the shard: repair minutes unconditionally
// (positive only, like Dataset.RepairTimes), the start-time delta against
// the shard's previous record as an interarrival (positive only, like
// Dataset.PositiveInterarrivals).
func (a *shardAccum) add(r *failures.Record) {
	a.records++
	if m := r.Downtime().Minutes(); m > 0 {
		a.repair.Add(m)
	}
	if a.haveLast {
		if r.Start.Before(a.lastStart) {
			a.outOfOrder++
		} else if d := r.Start.Sub(a.lastStart).Seconds(); d > 0 {
			a.inter.Add(d)
		}
		if r.Start.After(a.lastStart) {
			a.lastStart = r.Start
		}
		if r.Start.Before(a.firstStart) {
			a.firstStart = r.Start
		}
	} else {
		a.haveLast = true
		a.firstStart = r.Start
		a.lastStart = r.Start
	}
}

// shardKeysFor enumerates the shards one record belongs to under a spec:
// its system shard always, plus the optional fleet aggregate, workload
// and cause sub-shards. Shared by the one-shot streaming pass and the
// incremental engine so both fold records identically.
// The record is passed by pointer on purpose: this is the per-record hot
// path, and a failures.Record is over a hundred bytes — copying it into
// every helper showed up as measurable duffcopy time in profiles.
func shardKeysFor(spec ShardSpec, r *failures.Record) ([4]ShardKey, int) {
	keys := [4]ShardKey{{System: r.System}}
	n := 1
	if spec.IncludeFleet {
		keys[n] = ShardKey{}
		n++
	}
	if spec.ByWorkload {
		keys[n] = ShardKey{System: r.System, Workload: r.Workload}
		n++
	}
	if spec.ByCause {
		keys[n] = ShardKey{System: r.System, Cause: r.Cause}
		n++
	}
	return keys, n
}

// AnalyzeStream is the bounded-memory counterpart of AnalyzeFleet: it
// consumes records one at a time from src, sharding each into per-(system,
// workload, cause) streaming accumulators, and never materializes the
// trace. Memory is O(shards × reservoir size), independent of trace
// length.
//
// The result mirrors AnalyzeFleet's — same shard enumeration order, same
// ShardResult shape — with the documented accuracy trade:
//
//   - Summary moments (mean, variance, C², extrema) are exact up to
//     floating-point reassociation;
//   - Summary medians carry the sketch's (1 ± ε) relative-error
//     guarantee;
//   - distribution fits and their bootstrap intervals are computed on a
//     seeded uniform reservoir subsample (exact whenever a shard's sample
//     fits in the reservoir).
//
// Interarrival studies assume src yields records in start-time order; see
// StreamInfo.OutOfOrder.
func (e *Engine) AnalyzeStream(ctx context.Context, src RecordSource, opts StreamOptions) (*FleetResult, *StreamInfo, error) {
	spec := opts.Spec
	accums := make(map[ShardKey]*shardAccum)
	info := opts.info()

	touch := func(key ShardKey, r *failures.Record) error {
		a, ok := accums[key]
		if !ok {
			var err error
			if a, err = e.newShardAccum(key, opts); err != nil {
				return err
			}
			accums[key] = a
		}
		a.add(r)
		return nil
	}

	if bs, ok := src.(BatchSource); ok {
		// Batched fan-in: fold each decoded block in place — records are
		// addressed by pointer into the batch, so a block of 8192 records
		// costs one ScanBatch call instead of 8192 Scan/Record round
		// trips. The fold itself stays sequential, in record order, so
		// every accumulator sees exactly the per-record path's inputs.
		for {
			batch, err := bs.ScanBatch()
			if err != nil {
				return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
			}
			if batch == nil {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			for i := range batch {
				if info.RecordsScanned%4096 == 0 && i > 0 {
					if err := ctx.Err(); err != nil {
						return nil, nil, err
					}
				}
				r := &batch[i]
				info.RecordsScanned++
				keys, n := shardKeysFor(spec, r)
				for _, key := range keys[:n] {
					if err := touch(key, r); err != nil {
						return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
					}
				}
			}
		}
	} else {
		for src.Scan() {
			if info.RecordsScanned%4096 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
			}
			r := src.Record()
			info.RecordsScanned++
			keys, n := shardKeysFor(spec, &r)
			for _, key := range keys[:n] {
				if err := touch(key, &r); err != nil {
					return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
	}
	if info.RecordsScanned == 0 {
		return nil, nil, fmt.Errorf("engine analyze stream: %w", failures.ErrNoRecords)
	}
	for _, a := range accums {
		info.OutOfOrder += a.outOfOrder
	}

	keys := shardOrder(accums, spec)
	jobs := make([]*shardJob, len(keys))
	for i, key := range keys {
		a := accums[key]
		jobs[i] = &shardJob{pos: i, key: key, size: a.records, acc: a}
	}
	if err := e.analyzeJobs(ctx, jobs, nil, spec); err != nil {
		return nil, nil, err
	}
	results := make([]ShardResult, len(jobs))
	for i, j := range jobs {
		results[i] = j.res
	}
	return &FleetResult{Shards: results}, &info, nil
}
