package engine

import (
	"context"
	"fmt"

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
// a clean end; the returned slice is only valid until the next call.
// AnalyzeStream reads a BatchSource only through ScanBatch and folds
// each batch in place, skipping the per-record interface round trip.
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

// shardAccum is the O(1)-memory state of one shard during a streaming
// pass: counts, the earliest and latest start times for rate and
// interarrival accounting, and one streaming accumulator per sample kind.
type shardAccum struct {
	records    int
	haveLast   bool
	firstStart instant
	lastStart  instant
	outOfOrder int
	inter      *streamstats.Accumulator
	repair     *streamstats.Accumulator
}

// clone returns an independent deep copy for query-path fitting:
// identical counts, summaries and subsamples at O(sample) cost.
func (a *shardAccum) clone() *shardAccum {
	c := *a
	c.inter = a.inter.Clone()
	c.repair = a.repair.Clone()
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

// add folds one record into the shard, given its start time and its
// downtime in minutes with that downtime's repair sketch key, which the
// caller computes once for all the record's shards. The downtime counts
// as a repair time when positive (like Dataset.RepairTimes), and the
// start-time delta against the shard's latest start as an interarrival
// when positive (like Dataset.PositiveInterarrivals).
func (a *shardAccum) add(start instant, downMin float64, repair streamstats.Key) {
	a.records++
	if downMin > 0 {
		a.repair.AddKeyed(repair)
	}
	if a.haveLast {
		if start.before(a.lastStart) {
			a.outOfOrder++
		} else if d := start.sub(a.lastStart).Seconds(); d > 0 {
			a.inter.Add(d)
		}
		if a.lastStart.before(start) {
			a.lastStart = start
		}
		if start.before(a.firstStart) {
			a.firstStart = start
		}
	} else {
		a.haveLast = true
		a.firstStart = start
		a.lastStart = start
	}
}

// shardKeysFor writes the shards one record belongs to under a spec into
// keys and returns how many it wrote: its system shard always, plus the
// optional fleet aggregate, workload and cause sub-shards.
// The record and the keys are passed by pointer on purpose: this is the
// per-record hot path, and copying a failures.Record (over a hundred
// bytes) or returning the 96-byte key array showed up as measurable
// duffcopy time in profiles.
func shardKeysFor(spec ShardSpec, r *failures.Record, keys *[4]ShardKey) int {
	keys[0] = ShardKey{System: r.System}
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
	return n
}

// fold is the streaming shard state shared by AnalyzeStream and
// Incremental: one accumulator per shard holding records, and the number
// of records folded. It is not safe for concurrent use.
type fold struct {
	eng     *Engine
	opts    StreamOptions
	accums  map[ShardKey]*shardAccum
	records int
}

func (e *Engine) newFold(opts StreamOptions) fold {
	return fold{eng: e, opts: opts, accums: make(map[ShardKey]*shardAccum)}
}

// add folds recs in order into every shard each record belongs to and
// returns how many it folded. ctx is checked before the first record and
// every 4096 records after it; on cancellation every record before the
// returned count is fully folded and none after it is touched.
//
// Slot j of shardKeysFor always holds the same kind of key (system,
// fleet, workload or cause), so each slot remembers its last key and
// accumulator and looks up f.accums only when its key changes. The fleet
// slot always hits; the others hit while consecutive records share the
// key, which holds almost throughout for Stream/GenerateStream traces
// (grouped by system) and far less for Generate's time-sorted merge.
//
// Per record, the start and end times become instants once, and a
// positive downtime is keyed once for the repair sketches: every shard
// of a fold has the same sketch epsilon, so slot 0's key is every
// shard's key.
func (f *fold) add(ctx context.Context, recs []failures.Record) (int, error) {
	var keys, last [4]ShardKey
	var lastA [4]*shardAccum
	for i := range recs {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		r := &recs[i]
		start := instantOf(r.Start)
		downMin := instantOf(r.End).sub(start).Minutes()
		var repair streamstats.Key
		n := shardKeysFor(f.opts.Spec, r, &keys)
		for j, key := range keys[:n] {
			a := lastA[j]
			if a == nil || key != last[j] {
				var err error
				if a, err = f.accum(key); err != nil {
					return i, err
				}
				last[j], lastA[j] = key, a
			}
			if j == 0 && downMin > 0 {
				repair = a.repair.Key(downMin)
			}
			a.add(start, downMin, repair)
		}
		f.records++
	}
	return len(recs), nil
}

// accum returns the shard's accumulator, creating it on first use.
func (f *fold) accum(key ShardKey) (*shardAccum, error) {
	if a, ok := f.accums[key]; ok {
		return a, nil
	}
	a, err := f.eng.newShardAccum(key, f.opts)
	if err != nil {
		return nil, fmt.Errorf("engine fold: %w", err)
	}
	f.accums[key] = a
	return a, nil
}

// info reports what the fold has seen, with the defaults of unset sketch
// and reservoir options filled in.
func (f *fold) info() StreamInfo {
	info := StreamInfo{
		RecordsScanned: f.records,
		SketchEpsilon:  f.opts.SketchEpsilon,
		ReservoirSize:  f.opts.ReservoirSize,
	}
	if info.SketchEpsilon <= 0 {
		info.SketchEpsilon = streamstats.DefaultSketchEpsilon
	}
	if info.ReservoirSize <= 0 {
		info.ReservoirSize = streamstats.DefaultReservoirSize
	}
	for _, a := range f.accums {
		info.OutOfOrder += a.outOfOrder
	}
	return info
}

// recordBatches adapts a record-at-a-time RecordSource to BatchSource by
// copying up to cap(buf) records into a reused buffer per ScanBatch.
type recordBatches struct {
	RecordSource
	buf []failures.Record
}

// recordBatchLen is the adapter's batch size: large enough to amortize
// the per-batch call, small enough to stay cache-resident.
const recordBatchLen = 256

func (b *recordBatches) ScanBatch() ([]failures.Record, error) {
	b.buf = b.buf[:0]
	for len(b.buf) < cap(b.buf) && b.Scan() {
		b.buf = append(b.buf, b.Record())
	}
	if len(b.buf) == 0 {
		return nil, b.Err()
	}
	return b.buf, nil
}

// AnalyzeStream is the bounded-memory counterpart of AnalyzeFleet: it
// consumes records from src, sharding each into per-(system, workload,
// cause) streaming accumulators, and never materializes the trace.
// Memory is O(shards × reservoir size), independent of trace length.
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
// A BatchSource is folded a whole batch at a time, addressing records
// by pointer into the batch; any other source is read through a small
// fixed-size batch adapter. Either way the fold is sequential, in record
// order, so the result does not depend on how the records are batched.
//
// Interarrival studies assume src yields records in start-time order; see
// StreamInfo.OutOfOrder.
func (e *Engine) AnalyzeStream(ctx context.Context, src RecordSource, opts StreamOptions) (*FleetResult, *StreamInfo, error) {
	bs, ok := src.(BatchSource)
	if !ok {
		bs = &recordBatches{RecordSource: src, buf: make([]failures.Record, 0, recordBatchLen)}
	}
	f := e.newFold(opts)
	for {
		batch, err := bs.ScanBatch()
		if err != nil {
			return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
		}
		if batch == nil {
			break
		}
		if _, err := f.add(ctx, batch); err != nil {
			return nil, nil, err
		}
	}
	if err := src.Err(); err != nil {
		return nil, nil, fmt.Errorf("engine analyze stream: %w", err)
	}
	if f.records == 0 {
		return nil, nil, fmt.Errorf("engine analyze stream: %w", failures.ErrNoRecords)
	}

	keys := shardOrder(f.accums, opts.Spec)
	jobs := make([]*shardJob, len(keys))
	for i, key := range keys {
		a := f.accums[key]
		jobs[i] = &shardJob{pos: i, key: key, size: a.records, acc: a}
	}
	if err := e.analyzeJobs(ctx, jobs, nil, opts.Spec); err != nil {
		return nil, nil, err
	}
	results := make([]ShardResult, len(jobs))
	for i, j := range jobs {
		results[i] = j.res
	}
	info := f.info()
	return &FleetResult{Shards: results}, &info, nil
}
