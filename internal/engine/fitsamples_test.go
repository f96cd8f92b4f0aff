package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
)

// wideTrace builds a sorted synthetic trace over eight systems whose
// every (system, workload) and (system, cause) pair holds enough records
// to study, so a fleet spec with both sub-shard dimensions yields 81
// shards.
func wideTrace(n int) []failures.Record {
	t0 := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	causes, workloads := failures.Causes(), failures.Workloads()
	recs := make([]failures.Record, n)
	for i := range recs {
		start := t0.Add(time.Duration(i*37+(i*i)%17) * time.Minute)
		recs[i] = failures.Record{
			System:   1 + i%8,
			Node:     i % 64,
			HW:       "E",
			Workload: workloads[(i/8)%len(workloads)],
			Cause:    causes[(i/24)%len(causes)],
			Detail:   "CPU",
			Start:    start,
			End:      start.Add(time.Duration(10+i%300) * time.Minute),
		}
	}
	return recs
}

func wideSpec() ShardSpec {
	return ShardSpec{IncludeFleet: true, ByWorkload: true, ByCause: true}
}

// TestFitSamplesBoundedByWorkers pins the fit phase's memory bound: with
// intervals off, each distinct sample's dist.Sample lives only inside
// its own fit task, so a streamed pass over many shards never holds
// more than one per worker, and none once the call returns.
func TestFitSamplesBoundedByWorkers(t *testing.T) {
	recs := wideTrace(12000)
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			eng := New(Options{Workers: w, BootstrapReps: -1})
			res, _, err := eng.AnalyzeStream(context.Background(), &sliceSource{recs: recs}, StreamOptions{Spec: wideSpec()})
			if err != nil {
				t.Fatal(err)
			}
			studied := 0
			for _, sh := range res.Shards {
				if sh.Err != nil {
					t.Fatalf("shard %s: %v", sh.Key, sh.Err)
				}
				if sh.Interarrival != nil {
					studied++
				}
				if sh.Repair != nil {
					studied++
				}
			}
			if len(res.Shards) < 64 || studied < 2*64 {
				t.Fatalf("%d shards, %d studies: want at least 64 shards, all studied", len(res.Shards), studied)
			}
			live, peak := sampleGauge(eng)
			if live != 0 {
				t.Fatalf("%d fit samples still held after the call", live)
			}
			if peak < 1 || peak > int64(w) {
				t.Fatalf("%d fit samples alive at once over %d studies, want between 1 and %d (workers)", peak, studied, w)
			}
		})
	}
}

// TestFitSamplesWithCIs covers the intervals-on path, where fit samples
// stay alive into the bootstrap phase: every study's fits and intervals
// must still equal the ones fitted directly on the shard's sample, and
// the call must release every sample it built.
func TestFitSamplesWithCIs(t *testing.T) {
	d, err := failures.NewDataset(wideTrace(3000))
	if err != nil {
		t.Fatal(err)
	}
	spec := wideSpec()
	spec.CIFamilies = []dist.Family{dist.FamilyWeibull, dist.FamilyLogNormal}
	opts := Options{Workers: 2, BootstrapReps: 8, Seed: 9}
	eng := New(opts)
	res, err := eng.AnalyzeFleet(context.Background(), d, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(opts)
	check := func(key ShardKey, what string, st *Study, xs []float64) {
		t.Helper()
		if st == nil {
			t.Fatalf("shard %s: no %s study", key, what)
		}
		s := dist.NewSample(xs)
		fits := make([]dist.FitResult, 0, len(dist.StandardFamilies()))
		for _, f := range dist.StandardFamilies() {
			fits = append(fits, dist.FitOne(f, s))
		}
		if want := dist.Rank(fits); !reflect.DeepEqual(st.Fits, want) {
			t.Fatalf("shard %s %s: fits differ from a direct fit", key, what)
		}
		for _, f := range spec.CIFamilies {
			_, want, err := ref.FitCISample(context.Background(), s, f)
			if err != nil {
				t.Fatalf("shard %s %s %v: %v", key, what, f, err)
			}
			if !reflect.DeepEqual(st.CIs[f], want) {
				t.Fatalf("shard %s %s %v: intervals %v, want %v", key, what, f, st.CIs[f], want)
			}
		}
	}
	for _, sh := range res.Shards {
		if sh.Err != nil {
			t.Fatalf("shard %s: %v", sh.Key, sh.Err)
		}
		sub := slice(d, sh.Key)
		check(sh.Key, "interarrival", sh.Interarrival, sub.PositiveInterarrivals())
		check(sh.Key, "repair", sh.Repair, sub.RepairTimes())
	}
	if live, peak := sampleGauge(eng); live != 0 || peak < 1 {
		t.Fatalf("gauge after the call: %d live, %d peak; want 0 live and a positive peak", live, peak)
	}
}
