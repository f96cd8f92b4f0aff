package dist

import (
	"strings"
	"testing"

	"hpcfail/internal/randx"
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

// TestKSPartitionInvariance is the same property for the parametric-
// bootstrap KS test: exceed/ok counts are sums over blocks, so the p-value
// cannot depend on the partition.
func TestKSPartitionInvariance(t *testing.T) {
	const (
		reps = 30
		seed = 11
	)
	for _, name := range []string{"weibull", "exponential"} {
		xs := identitySamples()[name]
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				s := NewSample(xs)
				whole, wholeErr := BootstrapKSTest(f, xs, reps, seed)
				if wholeErr != nil {
					t.Skipf("whole-run error: %v", wholeErr)
				}
				p, err := NewKSPlan(f, s, reps, seed)
				if err != nil {
					t.Fatalf("NewKSPlan: %v", err)
				}
				for _, part := range partitions(reps) {
					blocks := make([]KSBlock, len(part))
					for i, b := range part {
						blocks[len(part)-1-i] = p.RunBlock(b[0], b[1])
					}
					got, err := p.Merge(blocks)
					if err != nil {
						t.Fatalf("%d blocks: %v", len(part), err)
					}
					if got.KS != whole.KS || got.P != whole.P || got.Replications != whole.Replications {
						t.Fatalf("%d blocks: KS/P/Replications %v/%v/%d vs %v/%v/%d",
							len(part), got.KS, got.P, got.Replications, whole.KS, whole.P, whole.Replications)
					}
					sameParamsBitwise(t, whole.Dist, got.Dist)
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

// TestRepBlockZeroAlloc asserts the per-rep body of RunBlock — reseed,
// gather, refit — allocates nothing, preserving the zero-allocation
// bootstrap property the kernels were built for.
func TestRepBlockZeroAlloc(t *testing.T) {
	s := NewSample(identitySamples()["weibull"])
	p, err := NewCIPlan(FamilyWeibull, s, 8, 0.9, 7)
	if err != nil {
		t.Fatalf("NewCIPlan: %v", err)
	}
	refit := newRefitFn(p.family)
	src := randx.NewSource(0)
	var scratch xform
	vals := make([]float64, 0, 4)
	r := 0
	avg := testing.AllocsPerRun(200, func() {
		src.Reseed(repSeed(p.seed, r%p.reps))
		scratch.gather(&p.s.t, src)
		vals, _ = refit(&scratch, vals[:0])
		r++
	})
	if avg != 0 {
		t.Fatalf("bootstrap rep allocated %.1f times on average; want 0", avg)
	}
}
