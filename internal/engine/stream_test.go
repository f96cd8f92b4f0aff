package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/streamstats"
)

// sliceSource yields an in-memory record slice, for tests that need a
// RecordSource without CSV.
type sliceSource struct {
	recs []failures.Record
	i    int
}

func (s *sliceSource) Scan() bool {
	if s.i < len(s.recs) {
		s.i++
		return true
	}
	return false
}
func (s *sliceSource) Record() failures.Record { return s.recs[s.i-1] }
func (s *sliceSource) Err() error              { return nil }

// TestAnalyzeStreamAgreesWithFleet is the cross-path accuracy contract:
// on a sorted trace whose shards fit in the reservoir, the streaming pass
// reproduces AnalyzeFleet's shard enumeration, record counts, fits and
// bootstrap intervals exactly, its moments up to floating-point
// reassociation, and its medians within the sketch's relative error of
// the anchored order statistic.
func TestAnalyzeStreamAgreesWithFleet(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{
		IncludeFleet: true,
		ByCause:      true,
		CIFamilies:   []dist.Family{dist.FamilyWeibull},
	}
	ctx := context.Background()

	mem, err := New(Options{Workers: 2, BootstrapReps: 16, Seed: 42}).AnalyzeFleet(ctx, d, spec)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := failures.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	sc, err := failures.NewScanner(&buf, failures.ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.01
	// A reservoir larger than any shard makes the subsample the full
	// sample, so fits and intervals must match the in-memory path bit for
	// bit.
	opts := StreamOptions{Spec: spec, SketchEpsilon: eps, ReservoirSize: d.Len() + 1}
	stream, info, err := New(Options{Workers: 2, BootstrapReps: 16, Seed: 42}).AnalyzeStream(ctx, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.RecordsScanned != d.Len() {
		t.Fatalf("scanned %d records, dataset has %d", info.RecordsScanned, d.Len())
	}
	if info.OutOfOrder != 0 {
		t.Fatalf("sorted trace reported %d out-of-order records", info.OutOfOrder)
	}
	if len(stream.Shards) != len(mem.Shards) {
		t.Fatalf("stream produced %d shards, in-memory %d", len(stream.Shards), len(mem.Shards))
	}
	for i := range mem.Shards {
		ms, ss := mem.Shards[i], stream.Shards[i]
		if ms.Key != ss.Key {
			t.Fatalf("shard %d: stream key %s, in-memory %s", i, ss.Key, ms.Key)
		}
		if ms.Records != ss.Records {
			t.Errorf("shard %s: stream records %d, in-memory %d", ms.Key, ss.Records, ms.Records)
		}
		if ms.Err != nil || ss.Err != nil {
			t.Fatalf("shard %s: errs %v / %v", ms.Key, ms.Err, ss.Err)
		}
		sub := slice(d, ms.Key)
		compareStudies(t, ms.Key.String()+" interarrival", ms.Interarrival, ss.Interarrival,
			sub.PositiveInterarrivals(), eps)
		compareStudies(t, ms.Key.String()+" repair", ms.Repair, ss.Repair,
			sub.RepairTimes(), eps)
	}
}

func compareStudies(t *testing.T, name string, mem, stream *Study, sample []float64, eps float64) {
	t.Helper()
	if (mem == nil) != (stream == nil) {
		t.Fatalf("%s: study nil-ness differs: in-memory %v, stream %v", name, mem == nil, stream == nil)
	}
	if mem == nil {
		return
	}
	if mem.N != stream.N {
		t.Fatalf("%s: stream N %d, in-memory %d", name, stream.N, mem.N)
	}
	relClose := func(field string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s %s: stream %g, in-memory %g", name, field, got, want)
		}
	}
	relClose("mean", stream.Summary.Mean, mem.Summary.Mean)
	relClose("variance", stream.Summary.Variance, mem.Summary.Variance)
	relClose("c2", stream.Summary.C2, mem.Summary.C2)
	if stream.Summary.Min != mem.Summary.Min || stream.Summary.Max != mem.Summary.Max {
		t.Errorf("%s extrema: stream %g/%g, in-memory %g/%g", name,
			stream.Summary.Min, stream.Summary.Max, mem.Summary.Min, mem.Summary.Max)
	}
	// The sketch guarantees (1 ± eps) relative error of the order
	// statistic at its anchor rank.
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	anchor := sorted[int(math.Round(0.5*float64(len(sorted)-1)))]
	if math.Abs(stream.Summary.Median-anchor) > eps*math.Abs(anchor)+1e-12 {
		t.Errorf("%s median: stream %g outside %g%% of order statistic %g",
			name, stream.Summary.Median, 100*eps, anchor)
	}
	// Reservoir ⊇ sample, so fitting inputs are identical: fits and CIs
	// must agree exactly.
	if !reflect.DeepEqual(mem.Fits, stream.Fits) {
		t.Errorf("%s: fits differ:\n  stream   %+v\n  in-memory %+v", name, stream.Fits, mem.Fits)
	}
	if !reflect.DeepEqual(mem.CIs, stream.CIs) {
		t.Errorf("%s: CIs differ:\n  stream   %+v\n  in-memory %+v", name, stream.CIs, mem.CIs)
	}
}

// batchSource wraps sliceSource with a ScanBatch that yields fixed-size
// chunks, driving AnalyzeStream's engine.BatchSource fast path.
type batchSource struct {
	sliceSource
	batchN int
}

func (s *batchSource) ScanBatch() ([]failures.Record, error) {
	if s.i >= len(s.recs) {
		return nil, nil
	}
	hi := s.i + s.batchN
	if hi > len(s.recs) {
		hi = len(s.recs)
	}
	b := s.recs[s.i:hi]
	s.i = hi
	return b, nil
}

type erringBatchSource struct {
	sliceSource
	err error
}

func (s *erringBatchSource) ScanBatch() ([]failures.Record, error) { return nil, s.err }

// TestAnalyzeStreamBatchIdentity: folding records by whole batches must
// produce the identical FleetResult and StreamInfo as a record-at-a-time
// source read through the batch adapter, and as Incremental's inline
// fold of the same records, at every batch size — batching is a pure
// dispatch-overhead optimization, never a semantic change. The sizes
// cover one record per batch, odd sizes on both sides of foldChunk
// (which split a batch across row buffers) and the whole trace in one
// batch, under the fleet+system and the fleet+cause specs.
func TestAnalyzeStreamBatchIdentity(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	ctx := context.Background()
	eng := func() *Engine { return New(Options{Workers: 2, BootstrapReps: 16, Seed: 42}) }
	for _, sc := range []struct {
		name string
		spec ShardSpec
	}{
		{"fleet+system", ShardSpec{IncludeFleet: true, CIFamilies: []dist.Family{dist.FamilyWeibull}}},
		{"fleet+cause", ShardSpec{IncludeFleet: true, ByCause: true, CIFamilies: []dist.Family{dist.FamilyWeibull}}},
	} {
		opts := StreamOptions{Spec: sc.spec}
		wantRes, wantInfo, err := eng().AnalyzeStream(ctx, &sliceSource{recs: recs}, opts)
		if err != nil {
			t.Fatal(err)
		}
		inc := eng().NewIncremental(opts)
		if n, err := inc.Append(ctx, recs); err != nil || n != len(recs) {
			t.Fatalf("%s: append: n=%d err=%v", sc.name, n, err)
		}
		res, info, err := inc.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wantRes) || *info != *wantInfo {
			t.Fatalf("%s: incremental fold differs from AnalyzeStream", sc.name)
		}
		for _, batchN := range []int{1, 3, 1000, foldChunk - 1, foldChunk + 1, 3*foldChunk + 7, len(recs) + 1} {
			src := &batchSource{sliceSource: sliceSource{recs: recs}, batchN: batchN}
			res, info, err := eng().AnalyzeStream(ctx, src, opts)
			if err != nil {
				t.Fatalf("%s: batchN=%d: %v", sc.name, batchN, err)
			}
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("%s: batchN=%d: batched result differs from record-at-a-time source", sc.name, batchN)
			}
			if *info != *wantInfo {
				t.Fatalf("%s: batchN=%d: info %+v, want %+v", sc.name, batchN, *info, *wantInfo)
			}
		}
	}

	// A batch source error aborts the analysis like a record source error.
	boom := errors.New("batch source failure")
	if _, _, err := eng().AnalyzeStream(ctx, &erringBatchSource{err: boom}, StreamOptions{}); !errors.Is(err, boom) {
		t.Fatalf("batch source error not propagated: %v", err)
	}
}

// stopSource is a cycleSource that notes every ScanBatch call: how
// many there were, whether one is running, and whether one began after
// the test marked AnalyzeStream as returned. Every call after the first
// takes a millisecond, like a decoder waiting on I/O, so a reader left
// running is caught inside a call. At call failAt it runs onFail
// (cancelling a context, say) and, if err is set, returns err.
type stopSource struct {
	cycleSource
	failAt   int
	onFail   func()
	err      error
	calls    atomic.Int64
	inFlight atomic.Int64
	returned atomic.Bool
	late     atomic.Int64
}

func (s *stopSource) ScanBatch() ([]failures.Record, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.returned.Load() {
		s.late.Add(1)
	}
	n := int(s.calls.Add(1))
	if n > 1 {
		time.Sleep(time.Millisecond)
	}
	if n == s.failAt {
		if s.onFail != nil {
			s.onFail()
		}
		if s.err != nil {
			return nil, s.err
		}
	}
	return s.cycleSource.ScanBatch()
}

// TestAnalyzeStreamStopsSource: AnalyzeStream reads its source on a
// goroutine of its own, and must have stopped that goroutine by the time
// it returns on every early path (a source error, a context cancelled
// mid-stream, an accumulator error), so a caller may close the source
// at once. After a source error or a cancellation the source sees no
// further call at all.
func TestAnalyzeStreamStopsSource(t *testing.T) {
	recs := groupedTrace(t)
	boom := errors.New("source failure")
	for _, tc := range []struct {
		name      string
		opts      StreamOptions
		fail      bool
		cancel    bool
		wantCalls int
	}{
		{name: "source error", fail: true, wantCalls: 5},
		{name: "cancel", cancel: true, wantCalls: 5},
		// An epsilon outside the sketch's range fails the first shard's
		// accumulator, while the source never ends.
		{name: "accumulator error", opts: StreamOptions{SketchEpsilon: 2}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		// An endless source: a reader never stopped would read it forever.
		src := &stopSource{cycleSource: *newCycleSource(recs, math.MaxInt, 1000)}
		if tc.fail {
			src.failAt, src.err = 5, boom
		}
		if tc.cancel {
			src.failAt, src.onFail = 5, cancel
		}
		_, _, err := New(Options{Workers: 1, BootstrapReps: -1}).AnalyzeStream(ctx, src, tc.opts)
		if n := src.inFlight.Load(); n != 0 {
			t.Errorf("%s: %d ScanBatch calls still running after AnalyzeStream returned", tc.name, n)
		}
		src.returned.Store(true)
		cancel()
		switch {
		case tc.fail && !errors.Is(err, boom):
			t.Errorf("%s: err = %v, want the source error", tc.name, err)
		case tc.cancel && !errors.Is(err, context.Canceled):
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		case err == nil:
			t.Errorf("%s: AnalyzeStream succeeded on a source that never ends", tc.name)
		}
		if got := int(src.calls.Load()); tc.wantCalls != 0 && got != tc.wantCalls {
			t.Errorf("%s: %d ScanBatch calls, want %d", tc.name, got, tc.wantCalls)
		}
		// A prep goroutine left running would go on reading the endless
		// source; every call it made would count here.
		t.Cleanup(func() {
			if n := src.late.Load(); n != 0 {
				t.Errorf("%s: %d ScanBatch calls after AnalyzeStream returned", tc.name, n)
			}
		})
	}
}

// BenchmarkFoldAdd is the per-record cost of the streaming fold (ns/op
// is per record) over the seed-1 lanl trace in both orders the repo
// folds: "grouped" is Stream's order (one system's records after
// another, as in binary traces), where every slot's cache almost always
// hits; "time-sorted" is Generate's merged order (CSV traces, daemon
// ingest), where systems interleave and only the fleet slot always hits.
// "2-shard" folds each record into its system and the fleet shard,
// "4-shard" into its workload and cause sub-shards as well. The trace is
// folded repeatedly into one fold, each replay shifted past the one
// before; the shift is not timed.
func BenchmarkFoldAdd(b *testing.B) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	if err != nil {
		b.Fatal(err)
	}
	orders := []struct {
		name string
		recs []failures.Record
	}{{"grouped", groupedTrace(b)}, {"time-sorted", d.Records()}}
	specs := []struct {
		name string
		spec ShardSpec
	}{
		{"2-shard", ShardSpec{IncludeFleet: true}},
		{"4-shard", ShardSpec{IncludeFleet: true, ByWorkload: true, ByCause: true}},
	}
	for _, o := range orders {
		for _, sc := range specs {
			b.Run(o.name+"/"+sc.name, func(b *testing.B) {
				f := New(Options{Workers: 1}).newFold(StreamOptions{Spec: sc.spec})
				ctx := context.Background()
				src := newCycleSource(o.recs, b.N, len(o.recs))
				b.ReportAllocs()
				b.ResetTimer()
				for {
					b.StopTimer()
					batch, _ := src.ScanBatch()
					b.StartTimer()
					if batch == nil {
						break
					}
					if _, err := f.add(ctx, batch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// groupedTrace is the seed-1 lanl trace in Stream's order: one system's
// records after another, as in binary traces.
func groupedTrace(tb testing.TB) []failures.Record {
	s := lanl.NewGenerator(lanl.Config{Seed: 1}).Stream()
	defer s.Close()
	var recs []failures.Record
	for s.Scan() {
		recs = append(recs, s.Record())
	}
	if err := s.Err(); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// cycleSource is a BatchSource of n records: recs over and over, in
// batches of at most batchN that never span the wrap. Every replay
// starts after the one before ended: at each wrap the source moves its
// own copy of recs later by their start span plus a second, so a replay
// folds as the first did, interarrivals and all, instead of as
// out-of-order records. A batch is valid only until the next ScanBatch,
// so none handed out is still read when the copy moves.
type cycleSource struct {
	sliceSource
	n, batchN int
	shift     time.Duration
}

func newCycleSource(recs []failures.Record, n, batchN int) *cycleSource {
	own := append([]failures.Record(nil), recs...)
	lo, hi := own[0].Start, own[0].Start
	for _, r := range own {
		if r.Start.Before(lo) {
			lo = r.Start
		}
		if hi.Before(r.Start) {
			hi = r.Start
		}
	}
	return &cycleSource{sliceSource: sliceSource{recs: own}, n: n, batchN: batchN, shift: hi.Sub(lo) + time.Second}
}

func (s *cycleSource) ScanBatch() ([]failures.Record, error) {
	if s.n == 0 {
		return nil, nil
	}
	if s.i == len(s.recs) {
		for i := range s.recs {
			s.recs[i].Start = s.recs[i].Start.Add(s.shift)
			s.recs[i].End = s.recs[i].End.Add(s.shift)
		}
		s.i = 0
	}
	hi := min(s.i+s.batchN, len(s.recs), s.i+s.n)
	b := s.recs[s.i:hi]
	s.n -= len(b)
	s.i = hi
	return b, nil
}

// TestCycleSourceReplaysFoldInOrder: a replay folds like the first pass.
// Three replays of the system-grouped trace count as many out-of-order
// records in the system shards as one pass (none: each system's
// records are sorted), and three times as many in the fleet shard, which
// sees the systems one after another in every replay.
func TestCycleSourceReplaysFoldInOrder(t *testing.T) {
	recs := groupedTrace(t)
	eng := New(Options{Workers: 1, BootstrapReps: -1})
	outOfOrder := func(spec ShardSpec, replays int) int {
		t.Helper()
		_, info, err := eng.AnalyzeStream(context.Background(), newCycleSource(recs, replays*len(recs), 8192), StreamOptions{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if info.RecordsScanned != replays*len(recs) {
			t.Fatalf("%d replays scanned %d records, want %d", replays, info.RecordsScanned, replays*len(recs))
		}
		return info.OutOfOrder
	}
	if one, three := outOfOrder(ShardSpec{}, 1), outOfOrder(ShardSpec{}, 3); three != one {
		t.Errorf("system shards: 3 replays count %d out-of-order records, one pass %d", three, one)
	}
	fleet := ShardSpec{IncludeFleet: true}
	if one, three := outOfOrder(fleet, 1), outOfOrder(fleet, 3); one == 0 || three != 3*one {
		t.Errorf("with the fleet shard: 3 replays count %d out-of-order records, one pass %d", three, one)
	}
}

// BenchmarkAnalyzeStream is the per-record cost of a whole AnalyzeStream
// pass (ns/op is per record) as trace-scan runs it: the system-grouped
// seed-1 trace, repeated to b.N records, in batches of tracefmt's
// default 8192-record block, into the fleet and per-system shards with
// bootstrap intervals off. It times both fold stages, their handoff and
// the final fits; the fits' cost is fixed, so it fades as b.N grows.
// Each replay is shifted past the one before, on the prep goroutine.
func BenchmarkAnalyzeStream(b *testing.B) {
	src := newCycleSource(groupedTrace(b), b.N, 8192)
	eng := New(Options{Workers: 2, BootstrapReps: -1, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	if _, _, err := eng.AnalyzeStream(context.Background(), src, StreamOptions{Spec: ShardSpec{IncludeFleet: true}}); err != nil {
		b.Fatal(err)
	}
}

// TestAnalyzeStreamEdgeCases covers the empty source, source errors,
// cancellation and out-of-order detection.
func TestAnalyzeStreamEdgeCases(t *testing.T) {
	eng := New(Options{Workers: 1, BootstrapReps: -1})
	ctx := context.Background()

	if _, _, err := eng.AnalyzeStream(ctx, &sliceSource{}, StreamOptions{}); !errors.Is(err, failures.ErrNoRecords) {
		t.Fatalf("empty source: err = %v, want ErrNoRecords", err)
	}

	// A scanner hitting malformed input in strict mode propagates its
	// error out of the analysis.
	bad := "system,node,hw,workload,cause,detail,start,end\n" +
		"1,0,E,compute,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n" +
		"oops\n"
	sc, err := failures.NewScanner(strings.NewReader(bad), failures.ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.AnalyzeStream(ctx, sc, StreamOptions{}); err == nil {
		t.Fatal("strict scanner error should abort the stream analysis")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	src := &sliceSource{recs: []failures.Record{{
		System: 1, HW: "E", Workload: failures.WorkloadCompute, Cause: failures.CauseHardware,
		Start: time.Unix(0, 0), End: time.Unix(60, 0),
	}}}
	if _, _, err := eng.AnalyzeStream(canceled, src, StreamOptions{}); err != context.Canceled {
		t.Fatalf("canceled context: err = %v, want context.Canceled", err)
	}

	// An unsorted trace is detected, and its negative deltas are not
	// folded into the interarrival sample. A start is out of order
	// against the shard's latest start, not the previous record's: 7
	// follows 5 but precedes 10, so it counts too.
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(minStart int) failures.Record {
		return failures.Record{
			System: 1, HW: "E", Workload: failures.WorkloadCompute, Cause: failures.CauseHardware,
			Start: t0.Add(time.Duration(minStart) * time.Minute),
			End:   t0.Add(time.Duration(minStart+30) * time.Minute),
		}
	}
	unsorted := &sliceSource{recs: []failures.Record{mk(0), mk(10), mk(5), mk(7), mk(40)}}
	res, info, err := eng.AnalyzeStream(ctx, unsorted, StreamOptions{Spec: ShardSpec{MinN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if info.OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", info.OutOfOrder)
	}
	shard, ok := res.Shard(ShardKey{System: 1})
	if !ok || shard.Interarrival == nil {
		t.Fatalf("missing system shard or interarrival study: %+v", res.Shards)
	}
	// Deltas against the latest start: +10, -5 and -3 (dropped), +30 —
	// two positive interarrivals.
	if shard.Interarrival.N != 2 {
		t.Fatalf("interarrival N = %d, want 2", shard.Interarrival.N)
	}
	if info.SketchEpsilon != streamstats.DefaultSketchEpsilon || info.ReservoirSize != streamstats.DefaultReservoirSize {
		t.Fatalf("defaults not echoed: %+v", info)
	}
}
