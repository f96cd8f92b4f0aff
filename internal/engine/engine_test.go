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

// A fleet study's comparison must agree exactly with the sequential
// dist.FitAll on the same sample: same families, same ranking, same
// parameters and scores.
func TestFitAllMatchesSequential(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	sys := d.BySystem(20)
	eng := New(Options{Workers: 4, BootstrapReps: -1, Seed: 1})
	res, err := eng.AnalyzeFleet(context.Background(), sys, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	shard, ok := res.Shard(ShardKey{System: 20})
	if !ok || shard.Interarrival == nil {
		t.Fatal("no system 20 interarrival study")
	}
	got := shard.Interarrival.Fits
	want, err := dist.FitAll(sys.PositiveInterarrivals())
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

// Shards holding identical samples share one fit table entry: each
// (sample, family) fit and interval is computed once per call, the
// duplicate shard's requests count as hits, and the counts do not depend
// on the worker count.
func TestFitTableDedup(t *testing.T) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 3}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	// With one system in the trace, the fleet shard holds exactly the
	// system shard's samples.
	sys := d.BySystem(20)
	spec := ShardSpec{IncludeFleet: true, CIFamilies: []dist.Family{dist.FamilyWeibull}}
	run := func(workers int) (hits, misses uint64) {
		eng := New(Options{Workers: workers, BootstrapReps: 8, Seed: 1})
		res, err := eng.AnalyzeFleet(context.Background(), sys, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shards) != 2 {
			t.Fatalf("%d shards, want fleet and system 20", len(res.Shards))
		}
		fleet, system := res.Shards[0], res.Shards[1]
		if !reflect.DeepEqual(fleet.Interarrival, system.Interarrival) || !reflect.DeepEqual(fleet.Repair, system.Repair) {
			t.Fatal("identical samples gave different studies")
		}
		if eng.Collisions() != 0 {
			t.Fatalf("Collisions = %d, want 0", eng.Collisions())
		}
		return eng.Stats()
	}
	// Two distinct samples (interarrival, repair), each fitted to the
	// standard four families and given one Weibull interval.
	perShard := uint64(2 * (len(dist.StandardFamilies()) + 1))
	hits, misses := run(1)
	if misses != perShard || hits != perShard {
		t.Fatalf("workers 1: %d hits / %d misses, want %d / %d", hits, misses, perShard, perShard)
	}
	if h8, m8 := run(8); h8 != hits || m8 != misses {
		t.Fatalf("workers 8: %d hits / %d misses, workers 1: %d / %d", h8, m8, hits, misses)
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
