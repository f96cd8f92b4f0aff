package streamstats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hpcfail/internal/stats"
)

// lcg is a tiny deterministic generator for test data.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}

func (l *lcg) float() float64 { return float64(l.next()>>40) / float64(1<<24) }

func TestMomentsMatchSummarize(t *testing.T) {
	rng := lcg(42)
	xs := make([]float64, 5000)
	var m Moments
	for i := range xs {
		xs[i] = 1e3*rng.float() + 0.5
		m.Add(xs[i])
	}
	want, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != want.N {
		t.Fatalf("N = %d, want %d", m.N(), want.N)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("mean", m.Mean(), want.Mean)
	approx("variance", m.Variance(), want.Variance)
	approx("stddev", m.StdDev(), want.StdDev)
	approx("c2", m.C2(), want.C2)
	if m.Min() != want.Min || m.Max() != want.Max {
		t.Errorf("min/max = %g/%g, want %g/%g", m.Min(), m.Max(), want.Min, want.Max)
	}
}

func TestMomentsEdges(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || m.N() != 0 || m.Variance() != 0 {
		t.Fatal("empty moments should have NaN mean, zero N and variance")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Variance() != 0 || m.Min() != 3 || m.Max() != 3 || m.C2() != 0 {
		t.Fatalf("single observation: mean=%g var=%g min=%g max=%g c2=%g",
			m.Mean(), m.Variance(), m.Min(), m.Max(), m.C2())
	}
	// Zero mean leaves C2 undefined.
	var z Moments
	z.Add(-1)
	z.Add(1)
	if !math.IsNaN(z.C2()) {
		t.Fatalf("zero-mean C2 = %g, want NaN", z.C2())
	}
	// NaN propagates to every statistic.
	var n Moments
	n.Add(1)
	n.Add(math.NaN())
	for name, v := range map[string]float64{
		"mean": n.Mean(), "variance": n.Variance(), "min": n.Min(), "max": n.Max(), "c2": n.C2(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s after NaN = %g, want NaN", name, v)
		}
	}
}

func TestSketchQuantileWithinRelativeError(t *testing.T) {
	for _, eps := range []float64{0.005, 0.01, 0.05} {
		s, err := NewQuantileSketch(eps)
		if err != nil {
			t.Fatal(err)
		}
		rng := lcg(99)
		xs := make([]float64, 20000)
		for i := range xs {
			// Heavy-tailed positive data, like interarrival seconds.
			xs[i] = math.Exp(8 * rng.float())
			s.Add(xs[i])
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got, err := s.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			rank := int(math.Round(q * float64(len(sorted)-1)))
			want := sorted[rank]
			if math.Abs(got-want) > eps*math.Abs(want)+1e-12 {
				t.Errorf("eps=%g q=%g: sketch %g vs order statistic %g (rel err %.4f)",
					eps, q, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

func TestSketchSpecialValues(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quantile(0.5); err != ErrEmptySketch {
		t.Fatalf("empty sketch: err = %v, want ErrEmptySketch", err)
	}
	for _, x := range []float64{math.Inf(-1), -5, 0, 0, 3, math.Inf(1)} {
		s.Add(x)
	}
	if q, err := s.Quantile(0); err != nil || !math.IsInf(q, -1) {
		t.Fatalf("q=0: %g, %v, want -Inf", q, err)
	}
	if q, err := s.Quantile(1); err != nil || !math.IsInf(q, 1) {
		t.Fatalf("q=1: %g, %v, want +Inf", q, err)
	}
	if q, err := s.Quantile(0.5); err != nil || q != 0 {
		t.Fatalf("median of {-Inf,-5,0,0,3,+Inf} = %g, %v, want 0", q, err)
	}
	if q, err := s.Quantile(0.2); err != nil || math.Abs(q+5) > 0.05+1e-12 {
		t.Fatalf("q=0.2 = %g, %v, want ~-5", q, err)
	}
	if _, err := s.Quantile(1.5); err == nil {
		t.Fatal("out-of-range q: want error")
	}
	s.Add(math.NaN())
	if _, err := s.Quantile(0.5); err != ErrNaNSketch {
		t.Fatalf("NaN sketch: err = %v, want ErrNaNSketch", err)
	}
	if _, err := NewQuantileSketch(1.5); err == nil {
		t.Fatal("eps >= 1: want error")
	}
	// Below MinSketchEpsilon the bucket edges no longer honor eps; a
	// snapshot decodes through the constructor and is refused too.
	if _, err := NewQuantileSketch(MinSketchEpsilon / 2); err == nil {
		t.Fatal("eps below MinSketchEpsilon: want error")
	}
	fine, err := newSketch(MinSketchEpsilon / 2).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := (&QuantileSketch{}).UnmarshalBinary(fine); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("snapshot with eps below MinSketchEpsilon: got %v, want ErrSnapshot", err)
	}
	if s, err := NewQuantileSketch(MinSketchEpsilon); err != nil || s.eps != MinSketchEpsilon {
		t.Fatalf("eps = MinSketchEpsilon: %v, %v", s, err)
	}
	if s, err := NewQuantileSketch(0); err != nil || s.eps != DefaultSketchEpsilon {
		t.Fatalf("default eps: %v, %v", s, err)
	}
}

func TestReservoir(t *testing.T) {
	// Stream shorter than capacity: the sample is the stream.
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.seen != 5 || len(r.Sample()) != 5 {
		t.Fatalf("seen=%d len=%d", r.seen, len(r.Sample()))
	}
	// Longer stream: capacity bounded, deterministic under the same seed.
	fill := func(seed int64) []float64 {
		r := NewReservoir(100, seed)
		for i := 0; i < 10000; i++ {
			r.Add(float64(i))
		}
		return r.Sample()
	}
	s1, s2 := fill(3), fill(3)
	if len(s1) != 100 {
		t.Fatalf("len = %d, want 100", len(s1))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed produced different reservoirs")
		}
	}
	// Uniformity sanity: the sample mean of indices 0..9999 should be near
	// 5000 (loose bound; Algorithm R is exactly uniform).
	var m Moments
	for _, x := range s1 {
		m.Add(x)
	}
	if m.Mean() < 3500 || m.Mean() > 6500 {
		t.Fatalf("reservoir mean %g implausible for uniform subsample", m.Mean())
	}
	if NewReservoir(0, 1).capacity != DefaultReservoirSize {
		t.Fatal("default capacity not applied")
	}
	// The sample's storage doubles up to the capacity and ends at it.
	r = NewReservoir(DefaultReservoirSize, 1)
	for i := 0; i < 2*DefaultReservoirSize; i++ {
		r.Add(float64(i))
	}
	if c := cap(r.sample); c != DefaultReservoirSize {
		t.Fatalf("full reservoir holds %d values of storage, want %d", c, DefaultReservoirSize)
	}
}

// TestReservoirInclusionUniform checks Algorithm R's defining property
// position by position, not just through the sample mean: over many
// seeds, every stream position lands in the final sample at rate
// capacity/n. The reservoirs are snapshotted and restored halfway
// through, so the check also covers the restored state; at that point
// each of the first half's positions must be held at rate
// capacity/half. Each position's count must be within 5 standard
// deviations of its expectation, and the counts together must pass a
// chi-square test at the same level.
func TestReservoirInclusionUniform(t *testing.T) {
	const (
		capacity = 8
		n        = 200
		half     = n / 2
		seeds    = 4000
	)
	mid, end := make([]int, half), make([]int, n)
	for seed := int64(0); seed < seeds; seed++ {
		r := NewReservoir(capacity, seed)
		for i := 0; i < half; i++ {
			r.Add(float64(i))
		}
		for _, x := range r.sample {
			mid[int(x)]++
		}
		blob, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r = &Reservoir{}
		if err := r.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for i := half; i < n; i++ {
			r.Add(float64(i))
		}
		for _, x := range r.sample {
			end[int(x)]++
		}
	}
	checkInclusion(t, "mid-stream", mid, capacity, seeds)
	checkInclusion(t, "after restore", end, capacity, seeds)
}

// checkInclusion tests the inclusion counts of m = len(counts) stream
// positions over draws uniform samples of capacity positions each. Each
// count is Binomial(draws, p) with p = capacity/m; since every sample
// holds exactly capacity positions, the counts' sum of squared
// standardized deviations, scaled by (m-1)/m, is chi-square with m-1
// degrees of freedom.
func checkInclusion(t *testing.T, label string, counts []int, capacity, draws int) {
	t.Helper()
	const z = 5
	m := float64(len(counts))
	p := float64(capacity) / m
	mean, sd := float64(draws)*p, math.Sqrt(float64(draws)*p*(1-p))
	var chi2 float64
	for i, c := range counts {
		d := (float64(c) - mean) / sd
		if math.Abs(d) > z {
			t.Errorf("%s: position %d held %d times, want %.0f ± %.0f", label, i, c, mean, z*sd)
		}
		chi2 += d * d
	}
	chi2 *= (m - 1) / m
	// Wilson–Hilferty upper quantile of chi-square(df) at z.
	df := m - 1
	bound := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if chi2 > bound {
		t.Errorf("%s: inclusion chi-square %.1f over %.0f positions exceeds %.1f", label, chi2, m, bound)
	}
}

// BenchmarkAccumulatorAdd is the cost of one Accumulator.Add at the
// default epsilon and reservoir size, over lognormal values spanning
// seconds to weeks, the range of the fold's interarrivals and repairs.
func BenchmarkAccumulatorAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<12)
	for i := range xs {
		xs[i] = math.Exp(8 + 2.5*rng.NormFloat64())
	}
	acc, err := NewAccumulator(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(xs[i&(len(xs)-1)])
	}
}

// sketchKeySink keeps BenchmarkSketchKey's keys live.
var sketchKeySink Key

// BenchmarkSketchKey is the cost of keying one value, the costly half of
// a sketch add, on the values the streaming fold keys: interarrivals in
// whole seconds and repairs in minutes of whole-second downtimes, both
// lognormal from seconds to weeks. At eps 0.01 (the default) bucket
// reads its cell table; at eps 1e-4 the table would be too fine, and
// slowBucket keys every value.
func BenchmarkSketchKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inter := make([]float64, 1<<12)
	repair := make([]float64, len(inter))
	for i := range inter {
		inter[i] = math.Max(1, math.Round(math.Exp(7+2*rng.NormFloat64())))
		repair[i] = math.Max(1, math.Round(60*math.Exp(4+1.5*rng.NormFloat64()))) / 60
	}
	for _, eps := range []float64{0.01, 1e-4} {
		s, err := NewQuantileSketch(eps)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			xs   []float64
		}{{"interarrival_s", inter}, {"repair_min", repair}} {
			b.Run(fmt.Sprintf("eps=%g/%s", eps, c.name), func(b *testing.B) {
				xs := c.xs
				for i := 0; i < b.N; i++ {
					sketchKeySink = s.Key(xs[i&(len(xs)-1)])
				}
			})
		}
	}
}
