package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
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
// source read through the batch adapter, at every batch size — batching
// is a pure dispatch-overhead optimization, never a semantic change.
func TestAnalyzeStreamBatchIdentity(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 5}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	spec := ShardSpec{IncludeFleet: true, ByCause: true, CIFamilies: []dist.Family{dist.FamilyWeibull}}
	ctx := context.Background()
	eng := func() *Engine { return New(Options{Workers: 2, BootstrapReps: 16, Seed: 42}) }

	wantRes, wantInfo, err := eng().AnalyzeStream(ctx, &sliceSource{recs: recs},
		StreamOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, batchN := range []int{1, 3, 1000, len(recs) + 1} {
		src := &batchSource{sliceSource: sliceSource{recs: recs}, batchN: batchN}
		res, info, err := eng().AnalyzeStream(ctx, src, StreamOptions{Spec: spec})
		if err != nil {
			t.Fatalf("batchN=%d: %v", batchN, err)
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("batchN=%d: batched result differs from record-at-a-time source", batchN)
		}
		if *info != *wantInfo {
			t.Fatalf("batchN=%d: info %+v, want %+v", batchN, *info, *wantInfo)
		}
	}

	// A batch source error aborts the analysis like a record source error.
	boom := errors.New("batch source failure")
	if _, _, err := eng().AnalyzeStream(ctx, &erringBatchSource{err: boom}, StreamOptions{}); !errors.Is(err, boom) {
		t.Fatalf("batch source error not propagated: %v", err)
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
	// folded into the interarrival sample.
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(minStart int) failures.Record {
		return failures.Record{
			System: 1, HW: "E", Workload: failures.WorkloadCompute, Cause: failures.CauseHardware,
			Start: t0.Add(time.Duration(minStart) * time.Minute),
			End:   t0.Add(time.Duration(minStart+30) * time.Minute),
		}
	}
	unsorted := &sliceSource{recs: []failures.Record{mk(0), mk(60), mk(30), mk(90)}}
	res, info, err := eng.AnalyzeStream(ctx, unsorted, StreamOptions{Spec: ShardSpec{MinN: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if info.OutOfOrder != 1 {
		t.Fatalf("OutOfOrder = %d, want 1", info.OutOfOrder)
	}
	shard, ok := res.Shard(ShardKey{System: 1})
	if !ok || shard.Interarrival == nil {
		t.Fatalf("missing system shard or interarrival study: %+v", res.Shards)
	}
	// Deltas: +60, -30 (dropped), +30 — two positive interarrivals.
	if shard.Interarrival.N != 2 {
		t.Fatalf("interarrival N = %d, want 2", shard.Interarrival.N)
	}
	if info.SketchEpsilon != streamstats.DefaultSketchEpsilon || info.ReservoirSize != streamstats.DefaultReservoirSize {
		t.Fatalf("defaults not echoed: %+v", info)
	}
}
