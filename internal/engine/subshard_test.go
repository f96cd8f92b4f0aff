package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/lanl"
)

func subShardSpec() ShardSpec {
	return ShardSpec{
		IncludeFleet: true,
		ByCause:      true,
		CIFamilies:   []dist.Family{dist.FamilyWeibull},
	}
}

// TestSubShardByteIdenticalAcrossWorkers is the acceptance matrix for the
// counter-seeded sub-shard pipeline: for every seed, AnalyzeFleet must
// produce byte-identical results at workers 1, 4, 8 and GOMAXPROCS, even
// though fit tasks and bootstrap rep blocks land on different workers in
// different orders at each count. make race-engine runs this under -race.
func TestSubShardByteIdenticalAcrossWorkers(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := subShardSpec()
	ctx := context.Background()
	workerCounts := []int{1, 4, 8, runtime.GOMAXPROCS(0)}

	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var want *FleetResult
			for _, w := range workerCounts {
				eng := New(Options{Workers: w, BootstrapReps: 16, Seed: seed})
				got, err := eng.AnalyzeFleet(ctx, d, spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d differs from workers=%d", w, workerCounts[0])
				}
			}
		})
	}
}

// TestStreamSubShardByteIdenticalAcrossWorkers runs the same worker matrix
// through the streaming path, whose sub-shard jobs fit reservoir samples
// instead of dataset slices. The spec adds workload sub-shards, so both
// sub-shard dimensions are covered on this path.
func TestStreamSubShardByteIdenticalAcrossWorkers(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	spec := subShardSpec()
	spec.ByWorkload = true
	opts := StreamOptions{Spec: spec}
	ctx := context.Background()

	for _, seed := range []int64{1, 2, 3} {
		var want *FleetResult
		for _, w := range []int{1, 4, 8, runtime.GOMAXPROCS(0)} {
			eng := New(Options{Workers: w, BootstrapReps: 16, Seed: seed})
			got, _, err := eng.AnalyzeStream(ctx, &sliceSource{recs: recs}, opts)
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, w, err)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed=%d: workers=%d differs from workers=1", seed, w)
			}
		}
	}
}

// TestDispatchOrderDoesNotAffectOutput pins the largest-shard-first
// heuristic as a pure scheduling choice: flipping the engine back to
// enumeration-order dispatch must leave the merged result byte-identical.
func TestDispatchOrderDoesNotAffectOutput(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := subShardSpec()
	ctx := context.Background()

	run := func(enum bool) *FleetResult {
		eng := New(Options{Workers: 4, BootstrapReps: 16, Seed: 5})
		eng.enumOrder = enum
		res, err := eng.AnalyzeFleet(ctx, d, spec)
		if err != nil {
			t.Fatalf("enumOrder=%v: %v", enum, err)
		}
		return res
	}
	if lpt, enum := run(false), run(true); !reflect.DeepEqual(lpt, enum) {
		t.Fatal("largest-first dispatch changed the output vs enumeration order")
	}
}

// TestCISpansTiling checks the rep-block planner: spans must tile
// [0, reps) contiguously in order, with no empty blocks, for any
// reps/workers combination.
func TestCISpansTiling(t *testing.T) {
	for _, reps := range []int{1, 2, 7, 8, 9, 16, 100, 1000, 4999} {
		for _, workers := range []int{1, 2, 4, 8, 64} {
			spans := ciSpans(reps, workers)
			next := 0
			for _, sp := range spans {
				if sp[0] != next || sp[1] <= sp[0] {
					t.Fatalf("reps=%d workers=%d: bad span %v at offset %d", reps, workers, sp, next)
				}
				next = sp[1]
			}
			if next != reps {
				t.Fatalf("reps=%d workers=%d: spans cover [0,%d), want [0,%d)", reps, workers, next, reps)
			}
		}
	}
}
