package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
)

// incTrace builds a sorted synthetic trace spread over systems,
// workloads and causes, with enough records per shard to fit.
func incTrace(n int) []failures.Record {
	t0 := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	causes := failures.Causes()
	workloads := failures.Workloads()
	recs := make([]failures.Record, n)
	for i := range recs {
		// Irregular but deterministic spacing keeps interarrivals
		// non-degenerate.
		start := t0.Add(time.Duration(i*37+(i*i)%17) * time.Minute)
		recs[i] = failures.Record{
			System:   1 + i%3,
			Node:     i % 64,
			HW:       "E",
			Workload: workloads[i%len(workloads)],
			Cause:    causes[i%len(causes)],
			Detail:   "CPU",
			Start:    start,
			End:      start.Add(time.Duration(10+i%300) * time.Minute),
		}
	}
	return recs
}

var update = flag.Bool("update", false, "rewrite the snapshot golden file")

func incSpec() ShardSpec {
	return ShardSpec{
		IncludeFleet: true,
		ByWorkload:   true,
		ByCause:      true,
		CIFamilies:   []dist.Family{dist.FamilyWeibull},
	}
}

func incEngine() *Engine {
	return New(Options{Workers: 2, BootstrapReps: 8, Seed: 42})
}

// The fold-equivalence contract: appends at any chunking reproduce a
// one-shot AnalyzeStream pass over the same sequence exactly, whether
// that pass reads an in-memory source or a CSV failures.Scanner (both
// record-at-a-time sources, folded through the batch adapter).
func TestIncrementalMatchesAnalyzeStream(t *testing.T) {
	recs := incTrace(1500)
	ctx := context.Background()
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 64}

	want, wantInfo, err := incEngine().AnalyzeStream(ctx, &sliceSource{recs: recs}, opts)
	if err != nil {
		t.Fatal(err)
	}

	var csvBuf bytes.Buffer
	cw, err := failures.NewCSVWriter(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	sc, err := failures.NewScanner(&csvBuf, failures.ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, gotInfo, err := incEngine().AnalyzeStream(ctx, sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || *wantInfo != *gotInfo {
		t.Fatal("CSV scanner source differs from in-memory source")
	}

	for _, chunk := range []int{1, 211, len(recs) + 1} {
		inc := incEngine().NewIncremental(opts)
		for i := 0; i < len(recs); i += chunk {
			end := min(i+chunk, len(recs))
			if n, err := inc.Append(ctx, recs[i:end]); err != nil || n != end-i {
				t.Fatalf("chunk %d: append [%d:%d): n=%d err=%v", chunk, i, end, n, err)
			}
		}
		got, gotInfo, err := inc.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunk %d: incremental result differs from one-shot AnalyzeStream", chunk)
		}
		if *wantInfo != *gotInfo {
			t.Fatalf("chunk %d: info differs: %+v vs %+v", chunk, *wantInfo, *gotInfo)
		}
	}
}

// Lazy refresh: a second Result with no interleaving appends is pure
// cache — no new fit or CI computations reach the engine.
func TestIncrementalResultIsCached(t *testing.T) {
	recs := incTrace(600)
	ctx := context.Background()
	eng := incEngine()
	inc := eng.NewIncremental(StreamOptions{Spec: incSpec(), ReservoirSize: 64})
	if _, err := inc.Append(ctx, recs); err != nil {
		t.Fatal(err)
	}
	first, _, err := inc.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := eng.Stats()
	second, _, err := inc.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := eng.Stats()
	if h1 != h0 || m1 != m0 {
		t.Fatalf("clean Result touched the engine: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached Result differs from computed Result")
	}

	// Appending to one system dirties only its shards; the refreshed
	// result must still equal a from-scratch run over the full sequence.
	extra := incTrace(1800)[1500:] // tail continues the time order
	var sys1 []failures.Record
	for _, r := range extra {
		r.System = 1
		sys1 = append(sys1, r)
	}
	if _, err := inc.Append(ctx, sys1); err != nil {
		t.Fatal(err)
	}
	got, _, err := inc.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh := incEngine().NewIncremental(StreamOptions{Spec: incSpec(), ReservoirSize: 64})
	if _, err := fresh.Append(ctx, append(append([]failures.Record(nil), recs...), sys1...)); err != nil {
		t.Fatal(err)
	}
	want, _, err := fresh.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("incremental refresh after a partial append diverged from a from-scratch run")
	}
}

// The satellite regression: cancelling mid-append returns ctx.Err()
// promptly, reports how much was folded, and leaves the accumulators in
// a consistent, resumable state — finishing the tail reproduces an
// uninterrupted run exactly.
func TestIncrementalAppendCancellation(t *testing.T) {
	recs := incTrace(1000)
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 32}

	inc := incEngine().NewIncremental(opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := inc.Append(ctx, recs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("append under cancelled ctx: err=%v, want context.Canceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-cancelled append folded %d records", n)
	}

	// Fold half, then "cancel" by appending through a ctx that dies after
	// a deadline-free cancel; emulate a mid-batch stop by splitting.
	bg := context.Background()
	if _, err := inc.Append(bg, recs[:500]); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(bg)
	cancel2()
	if n, err := inc.Append(ctx2, recs[500:]); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled tail append: n=%d err=%v", n, err)
	}
	// Resume with the unfolded tail under a live context.
	if _, err := inc.Append(bg, recs[500:]); err != nil {
		t.Fatal(err)
	}
	got, _, err := inc.Result(bg)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted := incEngine().NewIncremental(opts)
	if _, err := uninterrupted.Append(bg, recs); err != nil {
		t.Fatal(err)
	}
	want, _, err := uninterrupted.Result(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

// Snapshot → restore → identical future: both the restored and original
// incrementals fold the same tail and answer identically, and equal
// states snapshot to equal bytes.
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	recs := incTrace(1200)
	ctx := context.Background()
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 32}

	inc := incEngine().NewIncremental(opts)
	if _, err := inc.Append(ctx, recs[:700]); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := inc.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := incEngine().ReadIncremental(bytes.NewReader(snap.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, x := range []*Incremental{inc, restored} {
		if _, err := x.Append(ctx, recs[700:]); err != nil {
			t.Fatal(err)
		}
	}
	want, wantInfo, err := inc.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInfo, err := restored.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("restored incremental diverged from the original after further appends")
	}
	if *wantInfo != *gotInfo {
		t.Fatalf("info differs: %+v vs %+v", *wantInfo, *gotInfo)
	}

	// Byte determinism of equal states.
	var a, b bytes.Buffer
	if err := inc.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("equal incremental states produced different snapshot bytes")
	}

	// Mismatched options are refused rather than silently re-sharded.
	if _, err := incEngine().ReadIncremental(bytes.NewReader(snap.Bytes()),
		StreamOptions{Spec: incSpec(), ReservoirSize: 99}); !errors.Is(err, ErrIncMismatch) {
		t.Fatalf("reservoir mismatch: err=%v, want ErrIncMismatch", err)
	}
	badSpec := incSpec()
	badSpec.ByCause = false
	if _, err := incEngine().ReadIncremental(bytes.NewReader(snap.Bytes()),
		StreamOptions{Spec: badSpec, ReservoirSize: 32}); !errors.Is(err, ErrIncMismatch) {
		t.Fatalf("spec mismatch: err=%v, want ErrIncMismatch", err)
	}
	// Corruption is detected.
	if _, err := incEngine().ReadIncremental(bytes.NewReader(snap.Bytes()[:snap.Len()/2]), opts); !errors.Is(err, ErrIncSnapshot) {
		t.Fatalf("truncated snapshot: err=%v, want ErrIncSnapshot", err)
	}
}

// A snapshot holding shards the restoring spec cannot enumerate is
// corrupt: restoring it would drop those shards from every Result and
// fail every later WriteSnapshot.
func TestReadIncrementalRejectsShardsOutsideSpec(t *testing.T) {
	opts := StreamOptions{Spec: ShardSpec{ByCause: true}, ReservoirSize: 32}
	inc := incEngine().NewIncremental(opts)
	if _, err := inc.Append(context.Background(), incTrace(300)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := inc.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	b := snap.Bytes()
	b[len(incMagic)] = 0 // flags: no sub-shards
	_, err := incEngine().ReadIncremental(bytes.NewReader(b), StreamOptions{ReservoirSize: 32})
	if !errors.Is(err, ErrIncSnapshot) {
		t.Fatalf("cause shards under an empty spec: err=%v, want ErrIncSnapshot", err)
	}
}

// patchIncHeader rewrites one of a snapshot's header totals: field 0 is
// the record count, field 1 the out-of-order count.
func patchIncHeader(t *testing.T, snap []byte, field int, v uint64) []byte {
	t.Helper()
	off := len(incMagic) + 1 + 8
	_, n := binary.Varint(snap[off:]) // reservoir size
	off += n
	for ; field > 0; field-- {
		_, n = binary.Uvarint(snap[off:])
		off += n
	}
	_, n = binary.Uvarint(snap[off:])
	out := binary.AppendUvarint(append([]byte(nil), snap[:off]...), v)
	return append(out, snap[off+n:]...)
}

// The header's record and out-of-order totals must agree with the
// shards they summarize.
func TestReadIncrementalChecksHeaderTotals(t *testing.T) {
	recs := incTrace(300)
	recs[10], recs[11] = recs[11], recs[10] // out of order in the fleet shard
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 32}
	inc := incEngine().NewIncremental(opts)
	if _, err := inc.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	info := inc.Info()
	if info.OutOfOrder == 0 {
		t.Fatal("fixture has no out-of-order records")
	}
	var snap bytes.Buffer
	if err := inc.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// The unpatched header round-trips.
	if _, err := incEngine().ReadIncremental(bytes.NewReader(patchIncHeader(t, snap.Bytes(), 0, 300)), opts); err != nil {
		t.Fatalf("unpatched snapshot: %v", err)
	}
	for _, c := range []struct {
		name  string
		field int
		v     uint64
	}{
		{"records", 0, 135},
		{"records+1", 0, 301},
		{"out-of-order", 1, uint64(info.OutOfOrder) + 1},
		{"out-of-order zero", 1, 0},
	} {
		b := patchIncHeader(t, snap.Bytes(), c.field, c.v)
		if _, err := incEngine().ReadIncremental(bytes.NewReader(b), opts); !errors.Is(err, ErrIncSnapshot) {
			t.Errorf("%s patched to %d: err=%v, want ErrIncSnapshot", c.name, c.v, err)
		}
	}
}

func TestIncrementalEmptyAndRates(t *testing.T) {
	ctx := context.Background()
	inc := incEngine().NewIncremental(StreamOptions{Spec: ShardSpec{MinN: 1}})
	if _, _, err := inc.Result(ctx); !errors.Is(err, failures.ErrNoRecords) {
		t.Fatalf("empty Result: err=%v, want ErrNoRecords", err)
	}

	t0 := time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(day int) failures.Record {
		return failures.Record{
			System: 7, HW: "E", Workload: failures.WorkloadCompute, Cause: failures.CauseHardware,
			Start: t0.AddDate(0, 0, day), End: t0.AddDate(0, 0, day).Add(time.Hour),
		}
	}
	if _, err := inc.Append(ctx, []failures.Record{mk(0), mk(1), mk(2), mk(4)}); err != nil {
		t.Fatal(err)
	}
	rates := inc.Rates()
	if len(rates) != 1 {
		t.Fatalf("rates: %+v", rates)
	}
	r := rates[0]
	if r.Key != (ShardKey{System: 7}) || r.Records != 4 {
		t.Fatalf("rate shard: %+v", r)
	}
	if want := 1.0; r.PerDay != want {
		t.Fatalf("PerDay = %g, want %g (4 records over 4 days)", r.PerDay, want)
	}
	if !r.First.Equal(t0) || !r.Last.Equal(t0.AddDate(0, 0, 4)) {
		t.Fatalf("span: %v .. %v", r.First, r.Last)
	}

	// A single record has no span: rate undefined.
	single := incEngine().NewIncremental(StreamOptions{Spec: ShardSpec{MinN: 1}})
	if _, err := single.Append(ctx, []failures.Record{mk(0)}); err != nil {
		t.Fatal(err)
	}
	if rs := single.Rates(); len(rs) != 1 || !math.IsNaN(rs[0].PerDay) {
		t.Fatalf("single-record rate: %+v", rs)
	}
}

// Concurrent appenders and queriers must race cleanly (exercised under
// -race by the Makefile's race gate) and finish with every record
// accounted for.
func TestIncrementalConcurrentAppendResult(t *testing.T) {
	recs := incTrace(2000)
	ctx := context.Background()
	eng := New(Options{Workers: 4, BootstrapReps: -1, Seed: 1})
	inc := eng.NewIncremental(StreamOptions{Spec: incSpec(), ReservoirSize: 32})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * 500; i < (w+1)*500; i += 100 {
				if _, err := inc.Append(ctx, recs[i:i+100]); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := inc.Result(ctx); err != nil && !errors.Is(err, failures.ErrNoRecords) {
					t.Errorf("result: %v", err)
					return
				}
				inc.Rates()
			}
		}()
	}
	wg.Wait()
	if inc.Records() != len(recs) {
		t.Fatalf("folded %d records, want %d", inc.Records(), len(recs))
	}
	if _, _, err := inc.Result(ctx); err != nil {
		t.Fatal(err)
	}
}

// An HFINC01 snapshot of a fixed state encodes to the committed bytes,
// and those bytes restore and re-encode unchanged. The committed file
// pins the format across versions, which a round trip within one build
// cannot.
func TestIncrementalSnapshotGolden(t *testing.T) {
	const path = "testdata/incremental.golden"
	recs := incTrace(40)
	recs[5], recs[6] = recs[6], recs[5] // out of order in the fleet shard
	opts := StreamOptions{Spec: incSpec(), ReservoirSize: 4}
	inc := incEngine().NewIncremental(opts)
	if _, err := inc.Append(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := inc.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(snap.Bytes(), want) {
		t.Fatalf("encoding differs from %s (%d vs %d bytes)", path, snap.Len(), len(want))
	}
	restored, err := incEngine().ReadIncremental(bytes.NewReader(want), opts)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	var again bytes.Buffer
	if err := restored.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("restoring and re-encoding the golden snapshot changed its bytes")
	}
}
