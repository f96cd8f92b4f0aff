package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"hpcfail/internal/binx"
	"hpcfail/internal/failures"
	"hpcfail/internal/streamstats"
)

// Incremental is the concurrency-safe, long-lived counterpart of
// AnalyzeStream: a failure-analytics daemon appends record batches as
// they arrive and serves fit/CI/rate/summary queries at any point, with
// three properties the service contract depends on:
//
//   - Fold equivalence: Incremental and AnalyzeStream fold through the
//     same fold type, so appending records in a given order builds
//     exactly the state a one-shot AnalyzeStream pass over the same
//     sequence builds, however the sequence is split into appends.
//
//   - Lazy refresh: appends only fold accumulators (cheap, no fitting);
//     Result refits only the shards whose record count moved since their
//     cached result and serves the other shards from the per-shard cache.
//
//   - Non-blocking queries: Result copies dirty shards under a short
//     lock (O(sample) clones) and runs all fitting on the copies outside
//     it, so writers never wait on a bootstrap.
//
// Incremental is safe for concurrent Append and Result calls. Construct
// with Engine.NewIncremental or restore one with Engine.ReadIncremental.
type Incremental struct {
	mu sync.Mutex
	fold
	// cache holds each shard's last computed result; it is current while
	// its Records equals the shard's fold count.
	cache map[ShardKey]ShardResult
}

// NewIncremental builds an empty incremental analysis with the given
// stream options. The engine's seed drives per-shard reservoir seeding
// exactly as in AnalyzeStream, so two incrementals fed the same record
// sequence under engines with equal options are bit-identical.
func (e *Engine) NewIncremental(opts StreamOptions) *Incremental {
	return &Incremental{fold: e.newFold(opts), cache: make(map[ShardKey]ShardResult)}
}

// Options echoes the stream options the incremental was built with.
func (inc *Incremental) Options() StreamOptions { return inc.opts }

// Append folds a batch of records, in order, and reports how many were
// folded. Cancellation is checked before the first record and every 4096
// records after it: on ctx.Err the fold stops cleanly mid-batch — every
// record before the returned count is fully folded into all of its
// shards, none from it on is touched, and the accumulators stay
// consistent — so a caller can resume with the unfolded tail.
func (inc *Incremental) Append(ctx context.Context, recs []failures.Record) (int, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.add(ctx, recs)
}

// Records returns the total number of records folded so far.
func (inc *Incremental) Records() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.records
}

// Info reports the stream bookkeeping of the records folded so far, in
// the same shape as AnalyzeStream's.
func (inc *Incremental) Info() StreamInfo {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.info()
}

// Result returns the analysis of everything appended so far, in the
// canonical shard order. Shards untouched since the last Result are
// served from cache; dirty shards are copied under the lock and refitted
// outside it on the engine's worker pool. The result is a consistent
// point-in-time view: records appended after Result starts do not leak
// into it. Calling Result with nothing appended returns
// failures.ErrNoRecords, matching AnalyzeStream.
func (inc *Incremental) Result(ctx context.Context) (*FleetResult, *StreamInfo, error) {
	inc.mu.Lock()
	if inc.records == 0 {
		inc.mu.Unlock()
		return nil, nil, fmt.Errorf("engine incremental result: %w", failures.ErrNoRecords)
	}
	keys := shardOrder(inc.accums, inc.opts.Spec)
	out := make([]ShardResult, len(keys))
	var jobs []*shardJob
	for i, key := range keys {
		if c, ok := inc.cache[key]; ok && c.Records == inc.accums[key].records {
			out[i] = c
			continue
		}
		acc := inc.accums[key].clone()
		jobs = append(jobs, &shardJob{pos: i, key: key, size: acc.records, acc: acc})
	}
	info := inc.info()
	inc.mu.Unlock()

	// Fit the dirty shards outside the lock, over the same sub-shard
	// pipeline the one-shot paths use, largest dirty shard first.
	if err := inc.eng.analyzeJobs(ctx, jobs, nil, inc.opts.Spec); err != nil {
		return nil, nil, err
	}

	// Publish to the cache. A concurrent Result may have computed a
	// fresher view of the same shard; only ever replace older entries.
	inc.mu.Lock()
	for _, j := range jobs {
		out[j.pos] = j.res
		if cur, ok := inc.cache[j.key]; !ok || cur.Records < j.res.Records {
			inc.cache[j.key] = j.res
		}
	}
	inc.mu.Unlock()
	return &FleetResult{Shards: out}, &info, nil
}

// ShardRate is the observed failure rate of one shard: records per day
// over the shard's observed start-time span.
type ShardRate struct {
	Key     ShardKey
	Records int
	// First and Last bound the observed start times, in UTC.
	First, Last time.Time
	// PerDay is Records divided by the span in days; for a span of zero
	// (a single record, or all records simultaneous) it is NaN.
	PerDay float64
}

// Rates reports per-shard failure rates from the streaming counters — an
// O(shards) query that involves no fitting and takes the lock only
// briefly.
func (inc *Incremental) Rates() []ShardRate {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	keys := shardOrder(inc.accums, inc.opts.Spec)
	rates := make([]ShardRate, 0, len(keys))
	for _, key := range keys {
		a := inc.accums[key]
		r := ShardRate{Key: key, Records: a.records, PerDay: math.NaN()}
		if a.haveLast {
			r.First, r.Last = a.firstStart.time(), a.lastStart.time()
			if span := a.lastStart.sub(a.firstStart); span > 0 {
				r.PerDay = float64(a.records) / (span.Hours() / 24)
			}
		}
		rates = append(rates, r)
	}
	return rates
}

// Incremental snapshot codec. The format captures everything that
// determines future folds and query answers — counters, per-shard
// interarrival state and both accumulators (each reservoir's seed, seen
// count and sample, via the streamstats codec) — so restore + replay of a WAL
// suffix reproduces the exact in-memory state of an uninterrupted run.
// The shard order is the canonical enumeration, making equal states
// byte-equal snapshots.
var (
	incMagic = [8]byte{'H', 'F', 'I', 'N', 'C', '0', '1', '\n'}

	// ErrIncSnapshot is wrapped by every incremental-snapshot decode
	// failure.
	ErrIncSnapshot = errors.New("engine: corrupt incremental snapshot")
	// ErrIncMismatch reports a snapshot whose stream options disagree
	// with the restoring engine's — folding on would silently change
	// sharding or accuracy, so it is refused.
	ErrIncMismatch = errors.New("engine: incremental snapshot options mismatch")
)

// WriteSnapshot serializes the full incremental state. The query cache
// is deliberately excluded: a restored incremental refits every shard
// lazily on its first Result.
func (inc *Incremental) WriteSnapshot(w io.Writer) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	spec := inc.opts.Spec
	buf := append([]byte(nil), incMagic[:]...)
	var flags byte
	if spec.IncludeFleet {
		flags |= 1
	}
	if spec.ByWorkload {
		flags |= 2
	}
	if spec.ByCause {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(inc.opts.SketchEpsilon))
	buf = binary.AppendVarint(buf, int64(inc.opts.ReservoirSize))
	buf = binary.AppendUvarint(buf, uint64(inc.records))
	buf = binary.AppendUvarint(buf, uint64(inc.info().OutOfOrder))

	keys := shardOrder(inc.accums, spec)
	if len(keys) != len(inc.accums) {
		return fmt.Errorf("engine incremental snapshot: %d shards enumerate as %d", len(inc.accums), len(keys))
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, key := range keys {
		a := inc.accums[key]
		buf = binary.AppendVarint(buf, int64(key.System))
		buf = binary.AppendUvarint(buf, uint64(key.Workload))
		buf = binary.AppendUvarint(buf, uint64(key.Cause))
		buf = binary.AppendUvarint(buf, uint64(a.records))
		buf = binary.AppendUvarint(buf, uint64(a.outOfOrder))
		if a.haveLast {
			buf = append(buf, 1)
			buf = binx.AppendTime(buf, a.firstStart.time())
			buf = binx.AppendTime(buf, a.lastStart.time())
		} else {
			buf = append(buf, 0)
		}
		for _, acc := range []*streamstats.Accumulator{a.inter, a.repair} {
			b, err := acc.MarshalBinary()
			if err != nil {
				return fmt.Errorf("engine incremental snapshot: %w", err)
			}
			buf = binary.AppendUvarint(buf, uint64(len(b)))
			buf = append(buf, b...)
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadIncremental restores a WriteSnapshot blob into a fresh incremental
// bound to e. The snapshot's stream options must match opts
// (ErrIncMismatch otherwise): the restored accumulators were built under
// those options, and future folds must keep using them.
func (e *Engine) ReadIncremental(rd io.Reader, opts StreamOptions) (*Incremental, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("engine read incremental: %w", err)
	}
	r := binx.NewReader(data, ErrIncSnapshot)
	magic := r.Bytes(len(incMagic))
	flags := r.Byte()
	eps := r.F64()
	size := r.Varint()
	records, outOfOrder := r.Uvarint(), r.Uvarint()
	// A shard is at least six one-byte fields and two blob lengths.
	shards := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if [8]byte(magic) != incMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrIncSnapshot, magic)
	}
	spec := opts.Spec
	if spec.IncludeFleet != (flags&1 != 0) || spec.ByWorkload != (flags&2 != 0) || spec.ByCause != (flags&4 != 0) {
		return nil, fmt.Errorf("%w: sharding flags %03b vs spec {fleet=%t workload=%t cause=%t}",
			ErrIncMismatch, flags, spec.IncludeFleet, spec.ByWorkload, spec.ByCause)
	}
	if math.Float64bits(eps) != math.Float64bits(opts.SketchEpsilon) {
		return nil, fmt.Errorf("%w: sketch epsilon %g vs %g", ErrIncMismatch, eps, opts.SketchEpsilon)
	}
	if int(size) != opts.ReservoirSize {
		return nil, fmt.Errorf("%w: reservoir size %d vs %d", ErrIncMismatch, size, opts.ReservoirSize)
	}

	inc := e.NewIncremental(opts)
	for i := 0; i < shards; i++ {
		key := ShardKey{
			System:   int(r.Varint()),
			Workload: failures.Workload(r.Uvarint()),
			Cause:    failures.RootCause(r.Uvarint()),
		}
		a := &shardAccum{records: int(r.Uvarint()), outOfOrder: int(r.Uvarint())}
		if a.haveLast = r.Byte() != 0; a.haveLast {
			a.firstStart, a.lastStart = instantOf(r.Time()), instantOf(r.Time())
		}
		for _, accp := range []**streamstats.Accumulator{&a.inter, &a.repair} {
			b := r.Bytes(r.Count(1))
			if err := r.Err(); err != nil {
				return nil, err
			}
			acc := &streamstats.Accumulator{}
			if err := acc.UnmarshalBinary(b); err != nil {
				return nil, fmt.Errorf("engine read incremental shard %s: %w", key, err)
			}
			if err := checkFolded(acc); err != nil {
				return nil, fmt.Errorf("%w: shard %s: %v", ErrIncSnapshot, key, err)
			}
			*accp = acc
		}
		if _, dup := inc.accums[key]; dup {
			return nil, fmt.Errorf("%w: duplicate shard %s", ErrIncSnapshot, key)
		}
		inc.accums[key] = a
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Every shard must be one the spec enumerates, and the header totals
	// must follow from the shards: the system shards partition the
	// records, and out-of-order counts are per shard.
	if n := len(shardOrder(inc.accums, spec)); n != len(inc.accums) {
		return nil, fmt.Errorf("%w: %d shards, %d under the spec", ErrIncSnapshot, len(inc.accums), n)
	}
	var sysRecords uint64
	for key, a := range inc.accums {
		if key.System != 0 && key.Workload == 0 && key.Cause == 0 {
			sysRecords += uint64(a.records)
		}
	}
	if sysRecords != records {
		return nil, fmt.Errorf("%w: header says %d records, system shards hold %d", ErrIncSnapshot, records, sysRecords)
	}
	inc.records = int(records)
	if ooo := inc.info().OutOfOrder; uint64(ooo) != outOfOrder {
		return nil, fmt.Errorf("%w: header says %d out of order, shards hold %d", ErrIncSnapshot, outOfOrder, ooo)
	}
	return inc, nil
}

// checkFolded rejects an accumulator state no fold can produce. The fold
// adds only positive, finite interarrival and repair times, so a folded
// accumulator has a finite summary with a positive minimum and a
// subsample of positive, finite values.
func checkFolded(acc *streamstats.Accumulator) error {
	if acc.N() == 0 {
		return nil
	}
	s, err := acc.Summary()
	if err != nil {
		return err
	}
	for _, v := range []float64{s.Mean, s.Median, s.StdDev, s.Variance, s.C2, s.Min, s.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite summary %+v", s)
		}
	}
	if s.Min <= 0 {
		return fmt.Errorf("summary minimum %g, want > 0", s.Min)
	}
	for _, x := range acc.Sample() {
		if !(x > 0) || math.IsInf(x, 0) {
			return fmt.Errorf("subsample value %g, want positive and finite", x)
		}
	}
	return nil
}
