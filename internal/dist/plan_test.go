package dist

import (
	"strings"
	"testing"
)

// partitions enumerates several ways to tile [0, reps) into contiguous
// blocks: one block, halves, per-rep singletons, and a lopsided split. The
// plan contract is that all of them merge to the same bits.
func partitions(reps int) [][][2]int {
	per := make([][2]int, 0, reps)
	for r := 0; r < reps; r++ {
		per = append(per, [2]int{r, r + 1})
	}
	parts := [][][2]int{
		{{0, reps}},
		per,
	}
	if reps >= 2 {
		parts = append(parts, [][2]int{{0, reps / 2}, {reps / 2, reps}})
	}
	if reps >= 3 {
		parts = append(parts, [][2]int{{0, 1}, {1, reps - 1}, {reps - 1, reps}})
	}
	return parts
}

// runCIPartition executes a partition of the plan's reps with the blocks
// handed to Merge in reverse order, proving merge order is irrelevant too.
func runCIPartition(p *CIPlan, part [][2]int) (Continuous, []ParamCI, error) {
	blocks := make([]CIBlock, len(part))
	for i, b := range part {
		blocks[len(part)-1-i] = p.RunBlock(b[0], b[1])
	}
	return p.Merge(blocks)
}

// TestFitCIPartitionInvariance is the tentpole property of the counter-
// seeded bootstrap: however the reps are split into blocks, whatever order
// the blocks run or merge in, the intervals carry exactly the bits of the
// one-block FitCISample call — on the identity samples and on every shard
// sample of a small generated trace.
func TestFitCIPartitionInvariance(t *testing.T) {
	const (
		reps  = 48
		level = 0.9
		seed  = 7
	)
	for _, in := range inputsWithShards(t, "weibull", "lognormal", "exponential", "huge") {
		xs := in.xs
		families := identityFamilies
		if strings.HasPrefix(in.name, "shard-") {
			// The fleet analysis bootstraps only its interval families
			// on shard samples; hyperexp EM over the ~1000-value fleet
			// samples would cost seconds here.
			families = []Family{FamilyWeibull, FamilyLogNormal}
		}
		for _, f := range families {
			t.Run(in.name+"/"+f.String(), func(t *testing.T) {
				s := NewSample(xs)
				wholeD, wholeCIs, wholeErr := FitCISample(f, s, reps, level, seed)
				if wholeErr != nil {
					// Families that cannot fit this sample at all are
					// covered by the fit identity tests; nothing to split.
					t.Skipf("whole-run error: %v", wholeErr)
				}
				p, err := NewCIPlan(f, s, reps, level, seed)
				if err != nil {
					t.Fatalf("NewCIPlan: %v", err)
				}
				for _, part := range partitions(reps) {
					d, cis, err := runCIPartition(p, part)
					if err != nil {
						t.Fatalf("%d blocks: %v", len(part), err)
					}
					sameParamsBitwise(t, wholeD, d)
					if len(cis) != len(wholeCIs) {
						t.Fatalf("%d blocks: CI count %d vs %d", len(part), len(cis), len(wholeCIs))
					}
					for i := range cis {
						if cis[i] != wholeCIs[i] {
							t.Fatalf("%d blocks: CI %d differs:\n  whole: %+v\n  split: %+v",
								len(part), i, wholeCIs[i], cis[i])
						}
					}
				}
			})
		}
	}
}

// degenerateSample has so much mass on one value that a substantial
// fraction of bootstrap resamples draw it exclusively — an all-equal
// resample no family kernel will fit.
func degenerateSample() []float64 { return []float64{1, 1, 2} }

// TestDegenerateAccountingPartitionInvariant pins the fitOK accounting of
// the counter-seeded bootstrap: the number of degenerate resamples, and
// therefore the fitOK < (reps+1)/2 failure threshold, must come out
// identical however the reps are partitioned into blocks.
func TestDegenerateAccountingPartitionInvariant(t *testing.T) {
	const (
		reps  = 16
		level = 0.9
		seed  = 3
	)
	s := NewSample(degenerateSample())
	p, err := NewCIPlan(FamilyWeibull, s, reps, level, seed)
	if err != nil {
		t.Fatalf("NewCIPlan: %v", err)
	}
	whole := p.RunBlock(0, reps)
	if whole.OK == reps {
		t.Fatalf("sample produced no degenerate resamples; the test needs some")
	}
	if whole.OK == 0 {
		t.Fatalf("sample produced only degenerate resamples; pick a milder one")
	}
	for _, part := range partitions(reps) {
		total := 0
		for _, b := range part {
			total += p.RunBlock(b[0], b[1]).OK
		}
		if total != whole.OK {
			t.Fatalf("partition into %d blocks counted %d ok reps, whole run %d", len(part), total, whole.OK)
		}
	}
}

// TestDegenerateThresholdPartitionInvariant finds a (seed, reps) where the
// whole bootstrap crosses the failure threshold — more than half the
// resamples degenerate — and checks every partition fails with the
// identical error, degenerate counts included.
func TestDegenerateThresholdPartitionInvariant(t *testing.T) {
	const (
		reps  = 4
		level = 0.9
	)
	s := NewSample(degenerateSample())
	for seed := int64(1); seed <= 500; seed++ {
		_, _, wholeErr := FitCISample(FamilyWeibull, s, reps, level, seed)
		if wholeErr == nil {
			continue
		}
		if !strings.Contains(wholeErr.Error(), "resamples fitted") {
			t.Fatalf("seed %d: unexpected error %v", seed, wholeErr)
		}
		p, err := NewCIPlan(FamilyWeibull, s, reps, level, seed)
		if err != nil {
			t.Fatalf("NewCIPlan: %v", err)
		}
		for _, part := range partitions(reps) {
			_, _, err := runCIPartition(p, part)
			if err == nil {
				t.Fatalf("seed %d: whole run failed (%v) but %d-block partition succeeded", seed, wholeErr, len(part))
			}
			if err.Error() != wholeErr.Error() {
				t.Fatalf("seed %d: error text differs:\n  whole: %v\n  split: %v", seed, wholeErr, err)
			}
		}
		return
	}
	t.Fatalf("no seed in [1, 500] crossed the degenerate threshold; threshold case not exercised")
}

// TestMergeRejectsBadPartitions checks the tiling validation: gaps,
// overlaps, short coverage and inconsistent OK accounting are refused
// rather than silently merged.
func TestMergeRejectsBadPartitions(t *testing.T) {
	const (
		reps  = 8
		level = 0.9
		seed  = 5
	)
	s := NewSample(identitySamples()["weibull"])
	p, err := NewCIPlan(FamilyWeibull, s, reps, level, seed)
	if err != nil {
		t.Fatalf("NewCIPlan: %v", err)
	}
	whole := p.RunBlock(0, reps)
	cases := map[string][]CIBlock{
		"gap":        {p.RunBlock(0, 3), p.RunBlock(4, reps)},
		"overlap":    {p.RunBlock(0, 5), p.RunBlock(4, reps)},
		"short":      {p.RunBlock(0, reps-1)},
		"duplicated": {whole, whole},
	}
	bad := whole
	bad.OK++
	cases["miscounted"] = []CIBlock{bad}
	for name, blocks := range cases {
		if _, _, err := p.Merge(blocks); err == nil {
			t.Errorf("%s: Merge accepted an invalid tiling", name)
		}
	}
	if _, _, err := p.Merge([]CIBlock{whole}); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
}

// TestRepSeedCounterDiscipline sanity-checks the FNV-1a rep seeds: no
// collisions within a realistic rep range, and full sensitivity to the
// base seed.
func TestRepSeedCounterDiscipline(t *testing.T) {
	seen := make(map[int64]int)
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		for r := 0; r < 2000; r++ {
			s := repSeed(base, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: repSeed(%d, %d) == earlier value %d", base, r, prev)
			}
			seen[s] = r
		}
	}
	if repSeed(1, 0) == repSeed(2, 0) {
		t.Fatal("base seed does not perturb rep 0")
	}
}

// TestRepBlockZeroAlloc asserts that RunBlock, the CI loop the engine's
// workers run, adds no per-rep allocation around the rep body that
// TestBootstrapRepZeroAlloc pins for every family: its buffers and
// refitter are per block, so a block of 10 reps allocates as often as a
// block of 2.
func TestRepBlockZeroAlloc(t *testing.T) {
	s := NewSample(identitySamples()["weibull"])
	p, err := NewCIPlan(FamilyWeibull, s, 10, 0.9, 7)
	if err != nil {
		t.Fatalf("NewCIPlan: %v", err)
	}
	blockAllocs := func(hi int) float64 {
		return testing.AllocsPerRun(5, func() { p.RunBlock(0, hi) })
	}
	if few, many := blockAllocs(2), blockAllocs(10); few != many {
		t.Fatalf("RunBlock allocates %v times for 2 reps, %v for 10; want no per-rep allocation", few, many)
	}
}
