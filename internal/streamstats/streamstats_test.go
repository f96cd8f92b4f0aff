package streamstats

import (
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

func TestMomentsMergeEqualsSequential(t *testing.T) {
	rng := lcg(7)
	var whole, a, b Moments
	for i := 0; i < 3000; i++ {
		x := rng.float()*200 - 100
		whole.Add(x)
		if i < 1100 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	for name, pair := range map[string][2]float64{
		"mean":     {a.Mean(), whole.Mean()},
		"variance": {a.Variance(), whole.Variance()},
		"min":      {a.Min(), whole.Min()},
		"max":      {a.Max(), whole.Max()},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9*math.Max(1, math.Abs(pair[1])) {
			t.Errorf("merged %s = %g, sequential %g", name, pair[0], pair[1])
		}
	}
	// Merging into an empty accumulator copies; merging an empty one is a
	// no-op.
	var empty Moments
	empty.Merge(&whole)
	if empty.N() != whole.N() || empty.Mean() != whole.Mean() {
		t.Fatal("merge into empty accumulator lost state")
	}
	n := whole.N()
	whole.Merge(&Moments{})
	if whole.N() != n {
		t.Fatal("merging an empty accumulator changed N")
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
	if s, err := NewQuantileSketch(0); err != nil || s.Epsilon() != DefaultSketchEpsilon {
		t.Fatalf("default eps: %v, %v", s, err)
	}
}

func TestSketchMerge(t *testing.T) {
	a, _ := NewQuantileSketch(0.01)
	b, _ := NewQuantileSketch(0.01)
	rng := lcg(5)
	xs := make([]float64, 8000)
	whole, _ := NewQuantileSketch(0.01)
	for i := range xs {
		xs[i] = 1 + 1000*rng.float()
		whole.Add(xs[i])
		if i%2 == 0 {
			a.Add(xs[i])
		} else {
			b.Add(xs[i])
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got, err1 := a.Quantile(q)
		want, err2 := whole.Quantile(q)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if got != want {
			t.Errorf("q=%g: merged %g != sequential %g", q, got, want)
		}
	}
	c, _ := NewQuantileSketch(0.05)
	if err := a.Merge(c); err == nil {
		t.Fatal("merging mismatched epsilons: want error")
	}
}

func TestReservoir(t *testing.T) {
	// Stream shorter than capacity: the sample is the stream.
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != 5 || len(r.Sample()) != 5 {
		t.Fatalf("seen=%d len=%d", r.Seen(), len(r.Sample()))
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
}

func TestReservoirMerge(t *testing.T) {
	// Under capacity: exact union.
	a := NewReservoir(10, 1)
	b := NewReservoir(10, 2)
	a.Add(1)
	a.Add(2)
	b.Add(3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Seen() != 3 || len(a.Sample()) != 3 {
		t.Fatalf("merged seen=%d len=%d, want 3/3", a.Seen(), len(a.Sample()))
	}
	// Over capacity: bounded, and every kept value came from an input.
	c := NewReservoir(50, 3)
	d := NewReservoir(50, 4)
	in := make(map[float64]bool)
	for i := 0; i < 500; i++ {
		x, y := float64(i), float64(1000+i)
		in[x], in[y] = true, true
		c.Add(x)
		d.Add(y)
	}
	if err := c.Merge(d); err != nil {
		t.Fatal(err)
	}
	if c.Seen() != 1000 || len(c.Sample()) != 50 {
		t.Fatalf("merged seen=%d len=%d, want 1000/50", c.Seen(), len(c.Sample()))
	}
	fromD := 0
	for _, x := range c.Sample() {
		if !in[x] {
			t.Fatalf("merged sample contains %g, not from either input", x)
		}
		if x >= 1000 {
			fromD++
		}
	}
	// Both halves should be represented (equal stream lengths).
	if fromD == 0 || fromD == 50 {
		t.Fatalf("merged sample all from one side (fromD=%d)", fromD)
	}
	e := NewReservoir(50, 5)
	if err := c.Merge(e); err != nil || c.Seen() != 1000 {
		t.Fatalf("merging an empty reservoir: err=%v seen=%d", err, c.Seen())
	}
}

func TestReservoirMergeCapacityMismatch(t *testing.T) {
	a, b := NewReservoir(10, 1), NewReservoir(20, 1)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("capacity mismatch: want error")
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
