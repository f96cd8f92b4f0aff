package dist

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/randx"
	"hpcfail/internal/stats"
)

// identitySamples enumerates the observation vectors the bit-identity
// property tests run every family over: healthy samples from several
// generating families, heavy ties, extreme magnitudes, and each validation
// failure mode (empty, too small, all equal, zeros, negatives, NaN, Inf).
func identitySamples() map[string][]float64 {
	gen := func(seed int64, n int, draw func(*randx.Source) float64) []float64 {
		src := randx.NewSource(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw(src)
		}
		return xs
	}
	return map[string][]float64{
		"weibull":     gen(2, 200, func(s *randx.Source) float64 { return s.Weibull(0.7, 100) }),
		"lognormal":   gen(3, 150, func(s *randx.Source) float64 { return s.LogNormal(4, 1.5) }),
		"exponential": gen(4, 100, func(s *randx.Source) float64 { return s.Exponential(0.01) }),
		"tied":        {2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2},
		"tiny":        {1.5, 2.5, 4.5, 8.5, 16.5},
		"pair":        {1, 2},
		"huge":        {1e300, 1e299, 1e298, 5e299, 2e300, 3e298},
		"small-mags":  {1e-300, 2e-300, 5e-299, 1e-298, 7e-300},
		"all-equal":   {5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
		"with-zero":   {0, 1, 2, 3, 4},
		"negative":    {-1, 1, 2, 3},
		"with-nan":    {1, 2, math.NaN(), 4},
		"with-inf":    {1, 2, math.Inf(1), 4, 5},
		"single":      {3},
		"empty":       {},
	}
}

// namedSample is one test input with the name its subtests carry.
type namedSample struct {
	name string
	xs   []float64
}

// shardSamples are the engine's fleet-analysis inputs on a small generated
// trace (seed 1, rate scale 0.05): the fleet and then every system, each
// giving its positive interarrivals and its repair times when it has at
// least 10 of them. lanl does not import dist, so the trace is generated
// here rather than committed.
var shardSamples = sync.OnceValues(func() ([]namedSample, error) {
	d, err := lanl.NewGenerator(lanl.Config{Seed: 1, RateScale: 0.05}).Generate()
	if err != nil {
		return nil, err
	}
	var out []namedSample
	add := func(label string, sub *failures.Dataset) {
		for _, in := range []namedSample{
			{"shard-" + label + "-tbf", sub.PositiveInterarrivals()},
			{"shard-" + label + "-ttr", sub.RepairTimes()},
		} {
			if len(in.xs) >= 10 {
				out = append(out, in)
			}
		}
	}
	add("fleet", d)
	for _, id := range d.Systems() {
		add(fmt.Sprintf("sys%d", id), d.BySystem(id))
	}
	return out, nil
})

// inputsWithShards returns the named identity samples followed by every
// shard sample.
func inputsWithShards(t *testing.T, names ...string) []namedSample {
	t.Helper()
	shards, err := shardSamples()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 2 {
		t.Fatalf("only %d shard samples", len(shards))
	}
	out := make([]namedSample, 0, len(names)+len(shards))
	for _, name := range names {
		out = append(out, namedSample{name, identitySamples()[name]})
	}
	return append(out, shards...)
}

var identityFamilies = []Family{
	FamilyExponential, FamilyWeibull, FamilyGamma, FamilyLogNormal,
	FamilyNormal, FamilyPareto, FamilyHyperExp,
}

// sameError requires both paths to fail together with the same message
// (the kernels reproduce the reference's error text, including the first
// offending index).
func sameError(t *testing.T, refErr, kerErr error) bool {
	t.Helper()
	if (refErr == nil) != (kerErr == nil) {
		t.Fatalf("error mismatch: reference %v, kernel %v", refErr, kerErr)
	}
	if refErr == nil {
		return false
	}
	if refErr.Error() != kerErr.Error() {
		t.Fatalf("error text mismatch:\n  reference: %v\n  kernel:    %v", refErr, kerErr)
	}
	return true
}

// samePAramsBitwise asserts exact (==, not epsilon) equality of the fitted
// parameter vectors. NaN never occurs in successful fits, so plain ==
// comparison is well-defined.
func sameParamsBitwise(t *testing.T, ref, ker Continuous) {
	t.Helper()
	rp, ok := ref.(Parameterized)
	if !ok {
		t.Fatalf("reference fit %T not Parameterized", ref)
	}
	kp, ok := ker.(Parameterized)
	if !ok {
		t.Fatalf("kernel fit %T not Parameterized", ker)
	}
	rv, kv := rp.ParamValues(), kp.ParamValues()
	if len(rv) != len(kv) {
		t.Fatalf("param count %d vs %d", len(rv), len(kv))
	}
	for i := range rv {
		if rv[i] != kv[i] {
			t.Fatalf("param %d differs: reference %v (bits %#x), kernel %v (bits %#x)",
				i, rv[i], math.Float64bits(rv[i]), kv[i], math.Float64bits(kv[i]))
		}
	}
}

// TestFitSampleBitIdenticalToReference is the tentpole property: for every
// family and every sample shape, the kernel fitter over precomputed
// transforms returns exactly the frozen reference's bits — parameters
// compared with ==, and failures with identical error text.
func TestFitSampleBitIdenticalToReference(t *testing.T) {
	for name, xs := range identitySamples() {
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				ref, refErr := RefFit(f, xs)
				s := NewSample(xs)
				ker, kerErr := FitSample(f, s)
				if sameError(t, refErr, kerErr) {
					return
				}
				sameParamsBitwise(t, ref, ker)
			})
		}
	}
}

// TestFitAllSampleBitIdenticalToReference checks FitAll's full comparison —
// NLL, AIC and KS per family, and the ranked order — against the frozen
// reference, on the identity samples and on every shard sample of a small
// generated trace.
func TestFitAllSampleBitIdenticalToReference(t *testing.T) {
	for _, in := range inputsWithShards(t, "weibull", "lognormal", "exponential", "tied", "huge") {
		xs := in.xs
		t.Run(in.name, func(t *testing.T) {
			ref, refErr := RefFitAll(xs, identityFamilies...)
			ker, kerErr := FitAll(xs, identityFamilies...)
			if sameError(t, refErr, kerErr) {
				return
			}
			if len(ref.Results) != len(ker.Results) {
				t.Fatalf("result count %d vs %d", len(ref.Results), len(ker.Results))
			}
			for i := range ref.Results {
				r, k := ref.Results[i], ker.Results[i]
				if r.Family != k.Family {
					t.Fatalf("rank %d family %v vs %v", i, r.Family, k.Family)
				}
				if (r.Err == nil) != (k.Err == nil) {
					t.Fatalf("rank %d (%v) error mismatch: %v vs %v", i, r.Family, r.Err, k.Err)
				}
				if r.NLL != k.NLL && !(math.IsNaN(r.NLL) && math.IsNaN(k.NLL)) {
					t.Fatalf("rank %d (%v) NLL %v vs %v", i, r.Family, r.NLL, k.NLL)
				}
				if r.AIC != k.AIC && !(math.IsNaN(r.AIC) && math.IsNaN(k.AIC)) {
					t.Fatalf("rank %d (%v) AIC %v vs %v", i, r.Family, r.AIC, k.AIC)
				}
				if r.KS != k.KS && !(math.IsNaN(r.KS) && math.IsNaN(k.KS)) {
					t.Fatalf("rank %d (%v) KS %v vs %v", i, r.Family, r.KS, k.KS)
				}
				if r.Err == nil {
					sameParamsBitwise(t, r.Dist, k.Dist)
				}
			}
		})
	}
}

// refLoopFitCI is FitCISample written out against the frozen reference
// fitter: each rep reseeds from repSeed(seed, r), draws its resample the
// way xform.gather does (one src.Intn(n) per element, in order), refits
// with RefFit and skips the rep where RefFit errors; the epilogue is the
// same stats.Quantile percentile step.
func refLoopFitCI(f Family, xs []float64, reps int, level float64, seed int64) (Continuous, []ParamCI, error) {
	fitted, err := RefFit(f, xs)
	if err != nil {
		return nil, nil, fmt.Errorf("fit CI %v: %w", f, err)
	}
	params := fitted.(Parameterized)
	names, estimates := params.ParamNames(), params.ParamValues()
	src := randx.NewSource(0)
	resample := make([]float64, len(xs))
	resampled := make([][]float64, len(names))
	fitOK := 0
	for r := 0; r < reps; r++ {
		src.Reseed(repSeed(seed, r))
		for i := range resample {
			resample[i] = xs[src.Intn(len(xs))]
		}
		refit, err := RefFit(f, resample)
		if err != nil {
			continue
		}
		for i, v := range refit.(Parameterized).ParamValues() {
			resampled[i] = append(resampled[i], v)
		}
		fitOK++
	}
	if fitOK < (reps+1)/2 {
		return nil, nil, fmt.Errorf("fit CI %v: only %d of %d resamples fitted: %w",
			f, fitOK, reps, ErrInsufficientData)
	}
	alpha := (1 - level) / 2
	cis := make([]ParamCI, len(names))
	for i, name := range names {
		lo, err := stats.Quantile(resampled[i], alpha)
		if err != nil {
			return nil, nil, err
		}
		hi, err := stats.Quantile(resampled[i], 1-alpha)
		if err != nil {
			return nil, nil, err
		}
		cis[i] = ParamCI{Name: name, Estimate: estimates[i], Lo: lo, Hi: hi}
	}
	return fitted, cis, nil
}

// refLoopKSTest is BootstrapKSTest written out against the frozen
// reference fitter: each replication reseeds from repSeed(seed, r), draws
// a parametric sample with fitted.Rand, refits with RefFit and counts the
// replication as exceeding when stats.NewECDF(sample).KolmogorovSmirnov
// of the refit is at least the observed statistic.
func refLoopKSTest(f Family, xs []float64, reps int, seed int64) (KSTestResult, error) {
	fitted, err := RefFit(f, xs)
	if err != nil {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: %w", err)
	}
	ecdf, err := stats.NewECDF(xs)
	if err != nil {
		return KSTestResult{}, err
	}
	observed := ecdf.KolmogorovSmirnov(fitted.CDF)
	src := randx.NewSource(0)
	sample := make([]float64, len(xs))
	exceed, ok := 0, 0
	for r := 0; r < reps; r++ {
		src.Reseed(repSeed(seed, r))
		for i := range sample {
			sample[i] = fitted.Rand(src)
		}
		refit, err := RefFit(f, sample)
		if err != nil {
			continue
		}
		e, err := stats.NewECDF(sample)
		if err != nil {
			continue
		}
		ok++
		if e.KolmogorovSmirnov(refit.CDF) >= observed {
			exceed++
		}
	}
	if ok == 0 {
		return KSTestResult{}, fmt.Errorf("bootstrap KS: every replication failed: %w", ErrInsufficientData)
	}
	return KSTestResult{Family: f, Dist: fitted, KS: observed,
		P: float64(exceed) / float64(ok), Replications: ok}, nil
}

// TestFitCIBitIdenticalToReference pins the live counter-seeded bootstrap
// rep by rep against the frozen reference fitter: FitCISample must return
// refLoopFitCI's fitted estimates and interval bounds bit for bit, so the
// gather, the per-block refitter and the block merge are each checked
// against RefFit on the same resamples.
func TestFitCIBitIdenticalToReference(t *testing.T) {
	const (
		reps  = 64
		level = 0.9
		seed  = 7
	)
	for _, name := range []string{"weibull", "lognormal", "exponential", "huge"} {
		xs := identitySamples()[name]
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				refD, refCIs, refErr := refLoopFitCI(f, xs, reps, level, seed)
				kerD, kerCIs, kerErr := FitCISample(f, NewSample(xs), reps, level, seed)
				if sameError(t, refErr, kerErr) {
					return
				}
				sameParamsBitwise(t, refD, kerD)
				if len(refCIs) != len(kerCIs) {
					t.Fatalf("CI count %d vs %d", len(refCIs), len(kerCIs))
				}
				for i := range refCIs {
					if refCIs[i] != kerCIs[i] {
						t.Fatalf("CI %d differs:\n  reference: %+v\n  kernel:    %+v",
							i, refCIs[i], kerCIs[i])
					}
				}
			})
		}
	}
}

// TestBootstrapKSBitIdenticalToReference pins the live parametric-bootstrap
// KS test the same way: BootstrapKSTest must return refLoopKSTest's
// observed statistic, p-value and replication count, so the draws, the
// reused refitter and ksStat are checked against RefFit and the ECDF's own
// KolmogorovSmirnov on every replication.
func TestBootstrapKSBitIdenticalToReference(t *testing.T) {
	const (
		reps = 50
		seed = 11
	)
	for _, name := range []string{"weibull", "exponential"} {
		xs := identitySamples()[name]
		for _, f := range identityFamilies {
			t.Run(name+"/"+f.String(), func(t *testing.T) {
				ref, refErr := refLoopKSTest(f, xs, reps, seed)
				ker, kerErr := BootstrapKSTest(f, xs, reps, seed)
				if sameError(t, refErr, kerErr) {
					return
				}
				if ref.KS != ker.KS {
					t.Fatalf("observed KS %v vs %v", ref.KS, ker.KS)
				}
				if ref.P != ker.P {
					t.Fatalf("p-value %v vs %v", ref.P, ker.P)
				}
				if ref.Replications != ker.Replications {
					t.Fatalf("replications %d vs %d", ref.Replications, ker.Replications)
				}
				sameParamsBitwise(t, ref.Dist, ker.Dist)
			})
		}
	}
}

// TestSampleAccessors checks the precomputed aggregates against direct
// recomputation and the shared lazy views.
func TestSampleAccessors(t *testing.T) {
	xs := identitySamples()["weibull"]
	s := NewSample(xs)
	if s.N() != len(xs) {
		t.Fatalf("N = %d, want %d", s.N(), len(xs))
	}
	var sum, sumLog float64
	maxv, minv := xs[0], xs[0]
	for _, x := range xs {
		sum += x
		sumLog += math.Log(x)
		if x > maxv {
			maxv = x
		}
		if x < minv {
			minv = x
		}
	}
	if s.t.sum != sum {
		t.Fatalf("sum = %v, want %v", s.t.sum, sum)
	}
	if s.t.sumLog != sumLog {
		t.Fatalf("sumLog = %v, want %v", s.t.sumLog, sumLog)
	}
	if s.Min() != minv || s.Max() != maxv {
		t.Fatalf("extrema = (%v, %v), want (%v, %v)", s.Min(), s.Max(), minv, maxv)
	}
	if !s.t.positive {
		t.Fatal("positive = false for a strictly positive sample")
	}
	if got, want := s.Hash(), stats.HashSample(xs); got != want {
		t.Fatalf("Hash = %#x, want stats.HashSample %#x", got, want)
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("Sorted out of order at %d", i)
		}
	}
	if &sorted[0] != &s.Sorted()[0] {
		t.Fatal("Sorted does not return the shared view")
	}
	ecdf, err := s.ECDF()
	if err != nil {
		t.Fatal(err)
	}
	if ecdf.N() != len(xs) {
		t.Fatalf("ECDF N = %d, want %d", ecdf.N(), len(xs))
	}

	if NewSample([]float64{-3, 4}).t.positive {
		t.Fatal("positive = true for a sample containing a negative")
	}
	if _, err := NewSample(nil).ECDF(); err == nil {
		t.Fatal("ECDF on an empty sample: want error")
	}
}

// TestSamplePrehashed checks that the engine's interning constructor adopts
// the supplied hash instead of recomputing it.
func TestSamplePrehashed(t *testing.T) {
	xs := []float64{1, 2, 3}
	s := NewSamplePrehashed(xs, 0xdeadbeef)
	if s.Hash() != 0xdeadbeef {
		t.Fatalf("Hash = %#x, want the supplied %#x", s.Hash(), 0xdeadbeef)
	}
}

// TestBootstrapRepZeroAlloc pins the zero-allocation bootstrap for every
// family: once the scratch buffers have grown to the sample size, a CI rep
// (reseed, index-gather, refit, append the parameters) performs no heap
// allocation, and BootstrapKSTest allocates the same at any replication
// count, so its replications allocate nothing either.
func TestBootstrapRepZeroAlloc(t *testing.T) {
	xs := identitySamples()["weibull"]
	s := NewSample(xs)
	for _, f := range identityFamilies {
		t.Run(f.String(), func(t *testing.T) {
			fit := newRefitter(f)
			src := randx.NewSource(0)
			var scratch xform
			vals := make([]float64, 0, 4)
			r := 0
			ciRep := func() {
				src.Reseed(repSeed(7, r))
				r++
				scratch.gather(&s.t, src)
				if err := fit.refit(&scratch); err != nil {
					t.Fatalf("refit failed on a healthy resample: %v", err)
				}
				vals = fit.appendParams(vals[:0])
			}
			ciRep() // grow the buffers once
			if allocs := testing.AllocsPerRun(50, ciRep); allocs != 0 {
				t.Errorf("CI rep allocates %v times, want 0", allocs)
			}
			ksAllocs := func(reps int) float64 {
				return testing.AllocsPerRun(2, func() {
					if _, err := BootstrapKSTest(f, xs, reps, 11); err != nil {
						t.Fatal(err)
					}
				})
			}
			if few, many := ksAllocs(2), ksAllocs(10); few != many {
				t.Errorf("BootstrapKSTest allocates %v times at 2 reps, %v at 10; want no per-rep allocation", few, many)
			}
		})
	}
}

// BenchmarkFitWeibull compares the frozen slice-path Weibull fitter with
// the kernel over precomputed transforms, and prices the transform
// construction itself.
func BenchmarkFitWeibull(b *testing.B) {
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refFitWeibull(benchSample); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		s := NewSample(benchSample)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FitSample(FamilyWeibull, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel+NewSample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FitWeibull(benchSample); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitCI times the gather-based zero-allocation bootstrap loop
// (Weibull, the costliest family).
func BenchmarkFitCI(b *testing.B) {
	xs := benchSample[:1000]
	const (
		reps  = 32
		level = 0.95
		seed  = 5
	)
	s := NewSample(xs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := FitCISample(FamilyWeibull, s, reps, level, seed); err != nil {
			b.Fatal(err)
		}
	}
}
