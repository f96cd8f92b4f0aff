package engine

import (
	"context"
	"reflect"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/lanl"
	"hpcfail/internal/randx"
)

func sample(t *testing.T, n int) []float64 {
	t.Helper()
	src := randx.NewSource(7)
	wb, err := dist.NewWeibull(0.75, 600)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = wb.Rand(src)
	}
	return xs
}

// The engine's FitAll must agree exactly with the sequential dist.FitAll:
// same families, same ranking, same parameters and scores.
func TestFitAllMatchesSequential(t *testing.T) {
	xs := sample(t, 800)
	eng := New(Options{Workers: 4, Seed: 1})
	got, err := eng.FitAll(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("result count %d, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Family != w.Family || g.NLL != w.NLL || g.AIC != w.AIC || g.KS != w.KS {
			t.Errorf("rank %d: engine %+v != sequential %+v", i, g, w)
		}
		if g.Err == nil && g.Dist.Params() != w.Dist.Params() {
			t.Errorf("rank %d params %q != %q", i, g.Dist.Params(), w.Dist.Params())
		}
	}
}

// Repeated fits of the same sample must come from the cache.
func TestFitMemoization(t *testing.T) {
	xs := sample(t, 300)
	eng := New(Options{Workers: 2, Seed: 1})
	ctx := context.Background()
	if _, err := eng.FitAll(ctx, xs); err != nil {
		t.Fatal(err)
	}
	_, missesAfterFirst := eng.Stats()
	if _, err := eng.FitAll(ctx, xs); err != nil {
		t.Fatal(err)
	}
	hits, misses := eng.Stats()
	if misses != missesAfterFirst {
		t.Errorf("second FitAll added misses: %d -> %d", missesAfterFirst, misses)
	}
	if hits < uint64(len(dist.StandardFamilies())) {
		t.Errorf("second FitAll hit %d cache entries, want >= %d", hits, len(dist.StandardFamilies()))
	}
	// A different sample must miss.
	if _, err := eng.FitAll(ctx, xs[:200]); err != nil {
		t.Fatal(err)
	}
	if _, m := eng.Stats(); m <= misses {
		t.Error("distinct sample did not add cache misses")
	}
}

// A canceled context must abort the fleet analysis with the context error.
func TestAnalyzeFleetCancellation(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Workers: 2, BootstrapReps: 16, Seed: 1})
	if _, err := eng.AnalyzeFleet(ctx, d, ShardSpec{IncludeFleet: true}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, err := eng.FitAll(ctx, sample(t, 100)); err != context.Canceled {
		t.Fatalf("FitAll: got %v, want context.Canceled", err)
	}
	if _, _, err := eng.FitCI(ctx, sample(t, 100), dist.FamilyWeibull); err != context.Canceled {
		t.Fatalf("FitCI: got %v, want context.Canceled", err)
	}
}

// FitCI must be deterministic in the engine seed, not in call order or
// worker count, and the interval must bracket the point estimate.
func TestFitCIDeterministic(t *testing.T) {
	xs := sample(t, 600)
	ctx := context.Background()
	run := func(workers int) []dist.ParamCI {
		eng := New(Options{Workers: workers, BootstrapReps: 32, Seed: 9})
		_, cis, err := eng.FitCI(ctx, xs, dist.FamilyWeibull)
		if err != nil {
			t.Fatal(err)
		}
		return cis
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("FitCI differs across worker counts: %v vs %v", a, b)
	}
	for _, ci := range a {
		if !(ci.Lo <= ci.Estimate && ci.Estimate <= ci.Hi) {
			t.Errorf("%s: estimate %g outside [%g, %g]", ci.Name, ci.Estimate, ci.Lo, ci.Hi)
		}
	}
	// A different seed must give different intervals.
	engC := New(Options{BootstrapReps: 32, Seed: 10})
	_, c, err := engC.FitCI(ctx, xs, dist.FamilyWeibull)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical bootstrap intervals")
	}
}

// Negative BootstrapReps disables intervals in AnalyzeFleet and makes
// explicit FitCI calls fail loudly.
func TestBootstrapDisabled(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 2, BootstrapReps: -1, Seed: 1})
	res, err := eng.AnalyzeFleet(context.Background(), d.BySystem(20), ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Shards {
		if s.Interarrival != nil && s.Interarrival.CIs != nil {
			t.Errorf("shard %s: intervals computed with bootstrap disabled", s.Key)
		}
	}
	if _, _, err := eng.FitCI(context.Background(), sample(t, 100), dist.FamilyWeibull); err == nil {
		t.Error("FitCI with reps<0: want error")
	}
}

// The shard enumeration must be stable: fleet first, then systems
// ascending, sub-shards after their system.
func TestShardOrder(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{IncludeFleet: true, ByCause: true}
	keys := shardOrder(fleetShardSizes(d, spec), spec)
	if keys[0] != (ShardKey{}) {
		t.Fatalf("first shard %v, want fleet aggregate", keys[0])
	}
	lastSystem := 0
	for _, k := range keys[1:] {
		if k.System < lastSystem {
			t.Fatalf("shard %v out of order after system %d", k, lastSystem)
		}
		lastSystem = k.System
	}
}
