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
// AnalyzeStream reads a BatchSource only through ScanBatch, called from
// a goroutine of its own, and preps each batch in place, skipping the
// per-record interface round trip; it calls Err on its own goroutine
// once that one has exited.
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

// shardKeysFor writes the shards a record with the given system,
// workload and cause belongs to under a spec into keys and returns how
// many it wrote: its system shard always, plus the optional fleet
// aggregate, workload and cause sub-shards.
// The keys are written through a pointer on purpose: this is the
// per-record hot path, and returning the 96-byte key array showed up as
// measurable duffcopy time in profiles.
func shardKeysFor(spec ShardSpec, rec ShardKey, keys *[4]ShardKey) int {
	keys[0] = ShardKey{System: rec.System}
	n := 1
	if spec.IncludeFleet {
		keys[n] = ShardKey{}
		n++
	}
	if spec.ByWorkload {
		keys[n] = ShardKey{System: rec.System, Workload: rec.Workload}
		n++
	}
	if spec.ByCause {
		keys[n] = ShardKey{System: rec.System, Cause: rec.Cause}
		n++
	}
	return n
}

// fold is the streaming shard state shared by AnalyzeStream and
// Incremental: one accumulator per shard holding records, and the number
// of records folded. It folds in two stages, prep and apply; see add and
// addSource. It is not safe for concurrent use, except that prep may
// run on another goroutine than apply.
type fold struct {
	eng     *Engine
	opts    StreamOptions
	accums  map[ShardKey]*shardAccum
	records int
	// keyer keys downtimes for the shards' repair sketches in prep. It
	// is never added to, so prep only reads it.
	keyer *streamstats.QuantileSketch
	// rows is add's row buffer.
	rows []row
}

func (e *Engine) newFold(opts StreamOptions) fold {
	keyer, err := streamstats.NewQuantileSketch(opts.SketchEpsilon)
	if err != nil {
		// The first record's accumulator reports the bad epsilon. Until
		// then any geometry will do: AddKeyed re-keys a key from another.
		keyer, _ = streamstats.NewQuantileSketch(0)
	}
	return fold{eng: e, opts: opts, accums: make(map[ShardKey]*shardAccum), keyer: keyer}
}

// row is one record as the apply stage reads it: the record's system,
// workload and cause, its start time, and its downtime in minutes with,
// when positive, that downtime's repair sketch key.
type row struct {
	rec     ShardKey
	start   instant
	downMin float64
	repair  streamstats.Key
}

// foldChunk is the most records one prep call turns into rows, and the
// interval at which apply checks for cancellation. A chunk of rows
// (80 B each) stays within a core's L2 cache between the stages.
const foldChunk = 4096

// prep turns recs into rows, reusing rows' storage, and returns them.
// It converts the start and end times to instants once per record and
// keys a positive downtime once for every shard the record folds into:
// all shards of a fold share one sketch epsilon, so the keyer's key is
// each shard's own. prep reads only the fold's keyer, so it may run
// concurrently with apply.
func (f *fold) prep(rows []row, recs []failures.Record) []row {
	if cap(rows) < len(recs) {
		rows = make([]row, len(recs))
	}
	rows = rows[:len(recs)]
	// The keyer is loaded once: apply writes f.records on every row, and
	// reading f.keyer beside it on every record from another core would
	// pull that cache line back and forth between the two.
	keyer := f.keyer
	for i := range recs {
		r, p := &recs[i], &rows[i]
		p.rec = ShardKey{System: r.System, Workload: r.Workload, Cause: r.Cause}
		p.start = instantOf(r.Start)
		p.downMin = instantOf(r.End).sub(p.start).Minutes()
		p.repair = streamstats.Key{}
		if p.downMin > 0 {
			p.repair = keyer.Key(p.downMin)
		}
	}
	return rows
}

// apply folds rows in order into every shard each row's record belongs
// to and returns how many it folded. ctx is checked before the first row
// and every foldChunk rows after it; on cancellation every row before
// the returned count is fully folded and none after it is touched.
//
// Slot j of shardKeysFor always holds the same kind of key (system,
// fleet, workload or cause), so each slot remembers its last key and
// accumulator and looks up f.accums only when its key changes. The fleet
// slot always hits; the others hit while consecutive records share the
// key, which holds almost throughout for Stream/GenerateStream traces
// (grouped by system) and far less for Generate's time-sorted merge.
func (f *fold) apply(ctx context.Context, rows []row) (int, error) {
	var keys, last [4]ShardKey
	var lastA [4]*shardAccum
	for i := range rows {
		if i%foldChunk == 0 {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		p := &rows[i]
		n := shardKeysFor(f.opts.Spec, p.rec, &keys)
		for j, key := range keys[:n] {
			a := lastA[j]
			if a == nil || key != last[j] {
				var err error
				if a, err = f.accum(key); err != nil {
					return i, err
				}
				last[j], lastA[j] = key, a
			}
			a.add(p.start, p.downMin, p.repair)
		}
		f.records++
	}
	return len(rows), nil
}

// add folds recs in order, running prep and then apply on each chunk of
// foldChunk records on the caller's goroutine, and returns how many it
// folded, with apply's cancellation semantics: ctx is checked before the
// first record and every foldChunk records after it.
func (f *fold) add(ctx context.Context, recs []failures.Record) (int, error) {
	done := 0
	for done < len(recs) {
		f.rows = f.prep(f.rows, recs[done:min(done+foldChunk, len(recs))])
		n, err := f.apply(ctx, f.rows)
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// prepBufs is how many row buffers addSource circulates between its
// stages: one being applied, one being filled and one ready between
// them, so a stage that runs briefly ahead does not wait on the other.
const prepBufs = 3

// addSource folds every record bs yields, in order. A goroutine of its
// own calls ScanBatch and preps each batch a chunk at a time into one of
// prepBufs reused row buffers; the caller's goroutine applies the
// buffers in the order they were filled and hands each back. Every
// record goes through the same prep and apply as in add, in the same
// order, so the fold's state does not depend on which of the two ran.
//
// addSource returns only after the prep goroutine has exited, on every
// path: end of input, a source error, ctx cancellation and an
// accumulator error. So bs sees no ScanBatch call once addSource has
// returned, and the caller may close it at once. Nor does bs see one
// once ctx is done: the prep goroutine checks ctx before every call.
func (f *fold) addSource(ctx context.Context, bs BatchSource) error {
	// Both channels hold every buffer, so a send on either never blocks.
	free := make(chan []row, prepBufs)
	full := make(chan []row, prepBufs)
	for i := 0; i < prepBufs; i++ {
		free <- nil
	}
	// stop ends the prep goroutine early: when ctx is done, or when
	// apply fails.
	prepCtx, stop := context.WithCancel(ctx)
	var srcErr error
	go func() {
		defer close(full)
		for prepCtx.Err() == nil {
			batch, err := bs.ScanBatch()
			if err != nil || batch == nil {
				srcErr = err
				return
			}
			// A batch is valid only until the next ScanBatch, so it is
			// fully prepped before the next call.
			for len(batch) > 0 {
				var rows []row
				select {
				case rows = <-free:
				case <-prepCtx.Done():
					return
				}
				n := min(len(batch), foldChunk)
				full <- f.prep(rows, batch[:n])
				batch = batch[n:]
			}
		}
	}()
	// Join the prep goroutine before returning: stop it, then take what
	// it still sends until it closes full.
	defer func() {
		stop()
		for range full {
		}
	}()
	for rows := range full {
		if _, err := f.apply(ctx, rows); err != nil {
			return err
		}
		free <- rows
	}
	// full is closed, so the prep goroutine has exited: at the end of
	// input, with srcErr set, or because ctx is done.
	if err := ctx.Err(); err != nil {
		return err
	}
	if srcErr != nil {
		return fmt.Errorf("engine analyze stream: %w", srcErr)
	}
	return nil
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
// src is read on a goroutine of its own, which turns each batch into
// compact rows (shard fields, start time, downtime and its repair sketch
// key) while the caller's goroutine folds the previous rows into the
// shard accumulators. src is never read after AnalyzeStream returns, on
// any path, so the caller may close it at once. A BatchSource is read a
// whole batch at a time, addressing records by pointer into the batch;
// any other source goes through a small fixed-size batch adapter.
// Either way the rows are folded in record order, exactly as
// Incremental folds them, so the result does not depend on how the
// records are batched.
//
// Interarrival studies assume src yields records in start-time order; see
// StreamInfo.OutOfOrder.
func (e *Engine) AnalyzeStream(ctx context.Context, src RecordSource, opts StreamOptions) (*FleetResult, *StreamInfo, error) {
	bs, ok := src.(BatchSource)
	if !ok {
		bs = &recordBatches{RecordSource: src, buf: make([]failures.Record, 0, recordBatchLen)}
	}
	f := e.newFold(opts)
	if err := f.addSource(ctx, bs); err != nil {
		return nil, nil, err
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
