package lanl

import (
	"math"
	"runtime"
	"testing"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/randx"
)

// The tests in this file pin the optimized generator to the frozen
// reference path in ref.go: every record field, every system, several
// seeds and configurations, across worker counts. They are the identity
// proof the perf work rides on — if any compiled table, cached curve,
// threshold or merge drifts from the reference arithmetic by one bit,
// the record streams diverge and these tests name the first divergent
// record.

// sameRecords fails the test at the first field-level difference.
func sameRecords(t *testing.T, label string, got, want *failures.Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d records, reference has %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		a, b := got.At(i), want.At(i)
		if a.System != b.System || a.Node != b.Node || a.HW != b.HW ||
			a.Workload != b.Workload || a.Cause != b.Cause || a.Detail != b.Detail ||
			!a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
			t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", label, i, a, b)
		}
	}
}

func TestGenerateMatchesReferenceAcrossSeedsAndWorkers(t *testing.T) {
	workers := []int{1, 4, 8, runtime.GOMAXPROCS(0)}
	for _, seed := range []int64{1, 2, 3, 4} {
		ref, err := RefGenerate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, w := range workers {
			got, err := NewGenerator(Config{Seed: seed, Workers: w}).Generate()
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			sameRecords(t, "seed "+string(rune('0'+seed))+" workers", got, ref)
		}
	}
}

func TestGenerateMatchesReferenceOnConfigVariations(t *testing.T) {
	// The type G systems exercise the era threshold and batch logic; the
	// ablation flags and rate scaling bend every compiled path.
	configs := []Config{
		{Seed: 7, Systems: []int{19, 20, 21}},
		{Seed: 7, Systems: []int{19, 20, 21}, DisableCorrelatedBatches: true},
		{Seed: 7, Systems: []int{19, 20, 21}, DisableTimeModulation: true},
		{Seed: 7, Systems: []int{19, 20, 21}, DisableCorrelatedBatches: true, DisableTimeModulation: true},
		{Seed: 7, Systems: []int{20}, RateScale: 0.5},
		{Seed: 7, RateScale: 0.25},
		{Seed: 11, Systems: []int{5, 6, 22}},
	}
	for ci, cfg := range configs {
		ref, err := RefGenerate(cfg)
		if err != nil {
			t.Fatalf("config %d: reference: %v", ci, err)
		}
		for _, w := range []int{1, 4} {
			c := cfg
			c.Workers = w
			got, err := NewGenerator(c).Generate()
			if err != nil {
				t.Fatalf("config %d workers %d: %v", ci, w, err)
			}
			sameRecords(t, "config variation", got, ref)
		}
	}
}

func TestSubsetReproducesFullRun(t *testing.T) {
	// The documented Split() contract: a subset run must reproduce exactly
	// the records the full run assigns to those systems.
	full, err := NewGenerator(Config{Seed: 3, Workers: 4}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	subsetIDs := map[int]bool{5: true, 20: true}
	subset, err := NewGenerator(Config{Seed: 3, Systems: []int{5, 20}, Workers: 4}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	want := full.Filter(func(r failures.Record) bool { return subsetIDs[r.System] })
	sameRecords(t, "subset", subset, want)
}

func TestBuildProfileMatchesReference(t *testing.T) {
	// The table-driven profile loop must reproduce the reference per-hour
	// arithmetic bitwise for every catalog system, modulation on and off.
	for _, disable := range []bool{false, true} {
		cfg := Config{Seed: 9, RateScale: 1, DisableTimeModulation: disable}
		g := NewGenerator(cfg)
		rg := &refGenerator{cfg: cfg, hw: hwTable(), repairs: repairTable()}
		for _, sys := range Catalog() {
			params := rg.hw[sys.HW]
			shape := params.lifecycle
			if sys.ID == 21 {
				shape = shapeInfant
			}
			amp := infantAmplitude
			if firstOfTypeSystems[sys.ID] {
				amp = firstOfTypeAmplitude
			}
			// Identical child seeds so both paths draw the same month factors.
			seed := int64(1000 + sys.ID)
			got := g.buildProfile(sys, shape, amp, randx.NewSource(seed))
			want := rg.buildProfile(sys, shape, amp, randx.NewSource(seed))
			if len(got.rate) != len(want.rate) || len(got.cum) != len(want.cum) {
				t.Fatalf("system %d: profile sizes differ", sys.ID)
			}
			for h := range want.rate {
				if got.rate[h] != want.rate[h] {
					t.Fatalf("system %d disable=%v: rate[%d] = %x, reference %x",
						sys.ID, disable, h, got.rate[h], want.rate[h])
				}
				if got.cum[h+1] != want.cum[h+1] {
					t.Fatalf("system %d disable=%v: cum[%d] = %x, reference %x",
						sys.ID, disable, h+1, got.cum[h+1], want.cum[h+1])
				}
			}
		}
	}
}

func TestEraThresholdMatchesWallTimePredicate(t *testing.T) {
	// pos < eraEnd must agree with the reference era test at every probed
	// position, including the adjacent representable floats around the
	// boundary.
	g := NewGenerator(Config{Seed: 1, RateScale: 1})
	for _, id := range []int{19, 20, 21} {
		sys, err := SystemByID(id)
		if err != nil {
			t.Fatal(err)
		}
		shape := g.hw[sys.HW].lifecycle
		if sys.ID == 21 {
			shape = shapeInfant
		}
		p := g.buildProfile(sys, shape, infantAmplitude, randx.NewSource(42))
		eraEnd := p.eraThreshold()
		check := func(pos float64) {
			t.Helper()
			want := p.wallTime(pos).Year() < correlationEndYear
			if got := pos < eraEnd; got != want {
				t.Fatalf("system %d: pos %v (bits %x): threshold says %v, wallTime says %v",
					id, pos, math.Float64bits(pos), got, want)
			}
		}
		top := p.cum[len(p.cum)-1]
		for i := 0; i <= 1000; i++ {
			check(top * float64(i) / 1000)
		}
		if !math.IsInf(eraEnd, 1) && eraEnd > 0 {
			check(eraEnd)
			check(math.Nextafter(eraEnd, 0))
			check(math.Nextafter(eraEnd, math.Inf(1)))
		}
	}
}

func TestMakeRecordDoesNotAllocate(t *testing.T) {
	g := NewGenerator(Config{Seed: 1})
	sys, err := SystemByID(20)
	if err != nil {
		t.Fatal(err)
	}
	ct := g.hw[sys.HW]
	src := randx.NewSource(5)
	start := sys.Start.Add(1000 * time.Hour)
	var sink compactRecord
	allocs := testing.AllocsPerRun(1000, func() {
		sink = ct.makeRecord(3, failures.WorkloadCompute, start.UnixNano(), src)
	})
	if allocs != 0 {
		t.Fatalf("makeRecord allocates %v times per record; want 0", allocs)
	}
	if sink.node != 3 || sink.start != start.UnixNano() {
		t.Fatalf("unexpected record %+v", sink)
	}
}

func TestDrawTablesMatchCategorical(t *testing.T) {
	// A compiled draw must consume the same variate and return the same
	// index as randx's Categorical over the raw weights.
	weights := []float64{0.35, 0.2, 0.2, 0.1, 0.1, 0.05}
	table := compileWeights(make([]string, len(weights)), weights)
	a, b := randx.NewSource(77), randx.NewSource(77)
	for i := 0; i < 10000; i++ {
		if got, want := table.draw(a), b.Categorical(weights); got != want {
			t.Fatalf("draw %d: compiled %d, Categorical %d", i, got, want)
		}
	}
}

// TestBatchVictimWorkloadLabels is the regression test for the
// correlated-batch victim bug: the pre-PR code recognized graphics
// victims but not front-end victims, mislabeling the latter
// WorkloadCompute. No catalog type G system declares front-end nodes
// (they are NUMA machines), so the fix cannot change catalog output —
// the synthetic system below is the smallest configuration where the
// old code goes wrong. Against the frozen reference path this test
// fails, which is exactly the point.
func TestBatchVictimWorkloadLabels(t *testing.T) {
	sys := System{
		ID: 99, HW: "G", Nodes: 4, Procs: 4,
		Categories: []NodeCategory{{
			Nodes: 4, ProcsPerNode: 32,
			Start: date(1996, 6), End: date(1999, 6),
		}},
		Start: date(1996, 6), End: date(1999, 6),
		FrontendNodes: []int{0},
	}
	g := NewGenerator(Config{Seed: 12, RateScale: 4})
	block, err := g.generateSystem(sys, randx.NewSource(12), new(chunkCache))
	if err != nil {
		t.Fatal(err)
	}
	mislabeled, frontend := 0, 0
	for _, r := range block.records() {
		switch {
		case r.Node == 0 && r.Workload == failures.WorkloadFrontend:
			frontend++
		case r.Node == 0 && r.Workload != failures.WorkloadFrontend:
			mislabeled++
		}
	}
	if frontend == 0 {
		t.Fatal("no front-end records generated; test system too small to exercise the batch path")
	}
	if mislabeled != 0 {
		t.Fatalf("%d records on front-end node 0 mislabeled (of %d front-end records)", mislabeled, frontend)
	}

	// Confirm the scenario actually exercises the bug: the frozen
	// reference path must produce mislabeled front-end victims here,
	// proving this test fails on the pre-fix code.
	rg := &refGenerator{cfg: g.cfg, hw: hwTable(), repairs: repairTable()}
	refRecords, err := rg.generateSystem(sys, randx.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	refMislabeled := 0
	for _, r := range refRecords {
		if r.Node == 0 && r.Workload != failures.WorkloadFrontend {
			refMislabeled++
		}
	}
	if refMislabeled == 0 {
		t.Fatal("reference path produced no mislabeled front-end victims; regression scenario lost its teeth")
	}
}
