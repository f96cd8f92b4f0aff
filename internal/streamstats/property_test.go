package streamstats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hpcfail/internal/stats"
)

// bothNaNOrClose accepts two values that are both NaN, or both finite and
// within tol relative error — the agreement contract between the streaming
// accumulators and the in-memory stats package.
func bothNaNOrClose(got, want, tol float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestSketchBucketProperty is the regression test for the unbounded
// bucket keys: any positive finite value — subnormals and near-MaxFloat
// magnitudes included — must land in a key inside the sketch's clamped
// range with a finite, positive representative, and values inside the
// normal range must round-trip within the eps relative-error guarantee.
// Pre-fix, subnormal inputs minted keys near -37000 whose representative
// underflowed to 0 (relative error 1) and huge inputs overflowed to +Inf.
func TestSketchBucketProperty(t *testing.T) {
	for _, eps := range []float64{MinSketchEpsilon, 0.001, 0.01, 0.1} {
		s, err := NewQuantileSketch(eps)
		if err != nil {
			t.Fatal(err)
		}
		check := func(x float64) {
			t.Helper()
			k := s.bucket(x)
			if k < s.minKey || k > s.maxKey {
				t.Fatalf("eps %g: bucket(%g) = %d outside clamp [%d, %d]", eps, x, k, s.minKey, s.maxKey)
			}
			rep := s.value(k)
			if math.IsInf(rep, 0) || rep <= 0 {
				t.Fatalf("eps %g: representative of bucket(%g) is %g, want finite positive", eps, x, rep)
			}
			// Inside the clamp's guaranteed range the representative must
			// stay within eps relative error (1e-9 slack for the edges).
			if k > s.minKey && k < s.maxKey {
				if rel := math.Abs(rep-x) / x; rel > eps*(1+1e-9) {
					t.Fatalf("eps %g: |value(bucket(%g)) - x|/x = %g > eps %g", eps, x, rel, eps)
				}
			}
		}
		// Deterministic sweep over the full exponent range, subnormals and
		// overflow-adjacent magnitudes included.
		for e := -1074; e <= 1023; e++ {
			x := math.Ldexp(1, e)
			check(x)
			check(x * 1.37)
		}
		// Exact bucket boundaries and their fp neighbors: the log division
		// must not push an edge value into the wrong bucket.
		for _, k := range []int{s.minKey + 1, -1000, -17, -1, 0, 1, 17, 1000, s.maxKey - 1} {
			edge := math.Pow(s.gamma, float64(k))
			for _, x := range []float64{
				edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)),
			} {
				if x > 0 && !math.IsInf(x, 0) {
					check(x)
				}
			}
		}
		check(math.SmallestNonzeroFloat64)
		check(math.MaxFloat64)
	}
}

// powBucket is the reference definition of a bucket key: the Pow settle
// on every call, with no edge margin. bucket must agree with it key for
// key.
func (s *QuantileSketch) powBucket(x float64) int {
	k := int(math.Ceil(math.Log(x) / s.lnGamma))
	// The log division carries rounding error, so a value sitting on (or
	// within an ulp of) a bucket edge can land one bucket off; settle
	// edge cases against the actual bucket boundaries.
	if math.Pow(s.gamma, float64(k)) < x {
		k++
	} else if math.Pow(s.gamma, float64(k-1)) >= x {
		k--
	}
	if k < s.minKey {
		return s.minKey
	}
	if k > s.maxKey {
		return s.maxKey
	}
	return k
}

// tabulated returns newSketch(eps) with its cell table attached whenever
// its geometry has one, whether or not the process-wide cache still had
// room for it when the sketch was made.
func tabulated(eps float64) *QuantileSketch {
	s := newSketch(eps)
	if c := cellBits(s.gamma); c >= 0 && len(s.table.cells) == 0 {
		s.table = buildKeyTable(s, c)
	}
	return s
}

// TestSketchKeyTableExhaustive checks every cell of the table at each
// tabulated epsilon of the oracle sweeps against the Pow oracle: the
// cell's low end, its last float, the stored edge and the float after
// that edge. It also checks values just outside the window, the
// normal/subnormal boundary, and that eps 1e-4, whose cells would need
// more than maxCellBits, has no table.
func TestSketchKeyTableExhaustive(t *testing.T) {
	for _, eps := range []float64{1e-3, 0.01, 0.1, 0.5, 0.9} {
		s := newSketch(eps)
		c := cellBits(s.gamma)
		if c < 0 {
			t.Fatalf("eps %g: no cell width under a bucket", eps)
		}
		s.table = buildKeyTable(s, c)
		tab := s.table
		if len(tab.cells) != tableOctaves<<c {
			t.Fatalf("eps %g: table has %d cells, want %d", eps, len(tab.cells), tableOctaves<<c)
		}
		mismatches := 0
		check := func(x float64) {
			if got, want := s.bucket(x), s.powBucket(x); got != want {
				if mismatches++; mismatches <= 5 {
					t.Errorf("eps %g: bucket(%v) = %d, Pow oracle %d", eps, x, got, want)
				}
			}
		}
		for i, cell := range tab.cells {
			lo := math.Float64frombits((tab.base + uint64(i)) << tab.shift)
			check(lo)
			check(math.Float64frombits(math.Float64bits(lo) + 1<<tab.shift - 1))
			check(cell.edge)
			check(math.Nextafter(cell.edge, math.Inf(1)))
		}
		for _, x := range []float64{0x1p-17, 0x1p-16, math.Nextafter(0x1p-16, 0), 0x1p48, math.Nextafter(0x1p48, 0)} {
			check(x)
		}
		for d := -4; d <= 4; d++ {
			check(math.Float64frombits(math.Float64bits(0x1p-1022) + uint64(d)))
		}
		if mismatches > 0 {
			t.Fatalf("eps %g: %d keys differ from the Pow oracle", eps, mismatches)
		}
	}
	if s := newSketch(1e-4); cellBits(s.gamma) >= 0 || len(s.table.cells) != 0 {
		t.Fatalf("eps 1e-4: cell bits %d, %d table cells; want no table", cellBits(s.gamma), len(s.table.cells))
	}
}

// emptyKeyTables empties the process-wide table cache for one test and
// restores it afterwards.
func emptyKeyTables(t *testing.T) {
	keyTables.Lock()
	savedGammas, savedTables := keyTables.gammas, keyTables.tables
	keyTables.gammas, keyTables.tables = nil, nil
	keyTables.Unlock()
	t.Cleanup(func() {
		keyTables.Lock()
		keyTables.gammas, keyTables.tables = savedGammas, savedTables
		keyTables.Unlock()
	})
}

// TestSketchKeyTableConcurrent makes sketches of a few geometries from
// several goroutines at once, on an empty cache, so first uses race each
// other: every geometry must end up cached once, and every key must
// stay slowBucket's. Run it under -race.
func TestSketchKeyTableConcurrent(t *testing.T) {
	emptyKeyTables(t)
	epsilons := []float64{0.01, 0.02, 0.05, 0.1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				s := newSketch(epsilons[(g+i)%len(epsilons)])
				for j := 0; j < 20; j++ {
					x := math.Ldexp(1+rng.Float64(), rng.Intn(80)-24)
					if got, want := s.Key(x).bucket, s.slowBucket(x); got != want {
						t.Errorf("eps %g: key of %v = %d, slowBucket %d", s.eps, x, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	keyTables.Lock()
	defer keyTables.Unlock()
	if n := len(keyTables.gammas); n != len(epsilons) {
		t.Fatalf("cache holds %d tables after %d geometries", n, len(epsilons))
	}
}

// TestSketchKeyTableCacheBound decodes sketch snapshots at many distinct
// epsilons, as a hostile snapshot could carry: geometries too fine to
// tabulate build nothing, the cache stops at maxKeyTables, sketches
// beyond it key without a table, and every key stays slowBucket's.
func TestSketchKeyTableCacheBound(t *testing.T) {
	blob, err := newSketch(DefaultSketchEpsilon).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	emptyKeyTables(t)
	cached := func() int {
		keyTables.Lock()
		defer keyTables.Unlock()
		return len(keyTables.gammas)
	}
	decode := func(eps float64) *QuantileSketch {
		t.Helper()
		b := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(b[2:], math.Float64bits(eps))
		var s QuantileSketch
		if err := s.UnmarshalBinary(b); err != nil {
			t.Fatalf("eps %g: %v", eps, err)
		}
		return &s
	}
	rng := rand.New(rand.NewSource(28))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = math.Ldexp(1+rng.Float64(), rng.Intn(80)-24)
	}
	checkKeys := func(s *QuantileSketch) {
		t.Helper()
		for _, x := range xs {
			if got, want := s.Key(x).bucket, s.slowBucket(x); got != want {
				t.Fatalf("eps %g: key of %v = %d, slowBucket %d", s.eps, x, got, want)
			}
		}
	}
	for _, eps := range []float64{MinSketchEpsilon, 1e-5, 1e-4, 2e-4, 4e-4} {
		s := decode(eps)
		if len(s.table.cells) != 0 || cached() != 0 {
			t.Fatalf("eps %g: %d table cells, %d cached tables; want none", eps, len(s.table.cells), cached())
		}
		checkKeys(s)
	}
	for i := 0; i < 3*maxKeyTables; i++ {
		eps := 0.001 + 0.03*float64(i)
		s := decode(eps)
		if n := cached(); n != min(i+1, maxKeyTables) {
			t.Fatalf("after %d tabulated epsilons the cache holds %d tables", i+1, n)
		}
		if tabled := len(s.table.cells) > 0; tabled != (i < maxKeyTables) {
			t.Fatalf("eps %g (geometry %d): has table %v", eps, i+1, tabled)
		}
		checkKeys(s)
		if again := decode(eps); len(again.table.cells) > 0 && &again.table.cells[0] != &s.table.cells[0] {
			t.Fatalf("eps %g: a second sketch of the geometry got its own table", eps)
		}
	}
}

// TestSketchBucketMatchesPowOracle pins that skipping the Pow settle away
// from bucket edges changes no key. At every epsilon from 1e-12 to 0.9 it
// checks each edge Pow(gamma, k) for k in [-3000, 3000] and at random keys
// across the clamp range, each at ±4 ulps, then random positive float64
// bit patterns. At eps <= 1e-9 Pow itself is off by more than a bucket at
// large |k|, so this also pins that the margin scales with 1/lnGamma.
func TestSketchBucketMatchesPowOracle(t *testing.T) {
	randomKeys, randomBits := 200_000, 1_000_000
	if testing.Short() {
		randomKeys, randomBits = 20_000, 100_000
	}
	rng := rand.New(rand.NewSource(20))
	for _, eps := range []float64{1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 0.5, 0.9} {
		// Not NewQuantileSketch: the sweep reaches below
		// MinSketchEpsilon on purpose, where the margin is tightest.
		s := tabulated(eps)
		mismatches := 0
		check := func(x float64) {
			if !(x > 0) || math.IsInf(x, 0) {
				return
			}
			if got, want := s.bucket(x), s.powBucket(x); got != want {
				if mismatches++; mismatches <= 5 {
					t.Errorf("eps %g: bucket(%v) = %d, Pow oracle %d", eps, x, got, want)
				}
			}
		}
		checkEdge := func(k int) {
			bits := math.Float64bits(math.Pow(s.gamma, float64(k)))
			for d := -4; d <= 4; d++ {
				check(math.Float64frombits(bits + uint64(d)))
			}
		}
		for k := -3000; k <= 3000; k++ {
			checkEdge(k)
		}
		for i := 0; i < randomKeys; i++ {
			checkEdge(s.minKey + rng.Intn(s.maxKey-s.minKey+1))
		}
		for i := 0; i < randomBits; i++ {
			check(math.Float64frombits(rng.Uint64() >> 1))
		}
		if mismatches > 0 {
			t.Fatalf("eps %g: %d keys differ from the Pow oracle", eps, mismatches)
		}
	}
}

// TestSketchBucketMatchesSlowPath pins that bucket's cell table
// returns slowBucket's key: over the Pow-oracle sweep's edges at ±4
// ulps, random keys and random bit patterns, plus the normal/subnormal
// boundary, at every epsilon of that sweep, those below
// MinSketchEpsilon included (which have no table and take slowBucket).
func TestSketchBucketMatchesSlowPath(t *testing.T) {
	randomKeys, randomBits := 200_000, 1_000_000
	if testing.Short() {
		randomKeys, randomBits = 20_000, 100_000
	}
	rng := rand.New(rand.NewSource(23))
	for _, eps := range []float64{1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 0.5, 0.9} {
		s := tabulated(eps)
		mismatches := 0
		check := func(x float64) {
			if !(x > 0) || math.IsInf(x, 0) {
				return
			}
			got, want := s.bucket(x), s.slowBucket(x)
			if got != want {
				if mismatches++; mismatches <= 5 {
					t.Errorf("eps %g: bucket(%v) = %d, slowBucket %d", eps, x, got, want)
				}
			}
		}
		checkEdge := func(k int) {
			bits := math.Float64bits(math.Pow(s.gamma, float64(k)))
			for d := -4; d <= 4; d++ {
				check(math.Float64frombits(bits + uint64(d)))
			}
		}
		for k := -3000; k <= 3000; k++ {
			checkEdge(k)
		}
		for i := 0; i < randomKeys; i++ {
			checkEdge(s.minKey + rng.Intn(s.maxKey-s.minKey+1))
		}
		for i := 0; i < randomBits; i++ {
			check(math.Float64frombits(rng.Uint64() >> 1))
		}
		for d := -4; d <= 4; d++ {
			check(math.Float64frombits(math.Float64bits(0x1p-1022) + uint64(d)))
		}
		if mismatches > 0 {
			t.Fatalf("eps %g: %d keys differ from slowBucket", eps, mismatches)
		}
	}
}

// A warm Accumulator.Add — reservoir full, sketch window grown over the
// sample's keys — allocates nothing, and neither does a warm AddKeyed.
func TestAccumulatorAddAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<12)
	for i := range xs {
		xs[i] = math.Exp(8 + 2.5*rng.NormFloat64())
	}
	acc, err := NewAccumulator(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*DefaultReservoirSize; i++ {
		acc.Add(xs[i&(len(xs)-1)])
	}
	i := 0
	if allocs := testing.AllocsPerRun(10_000, func() {
		acc.Add(xs[i&(len(xs)-1)])
		i++
	}); allocs != 0 {
		t.Fatalf("warm Accumulator.Add allocates %v times per call", allocs)
	}

	// The keyed path the engine fold takes for repair times: one key
	// applied to a second accumulator with the same epsilon.
	other, err := NewAccumulator(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*DefaultReservoirSize; i++ {
		other.AddKeyed(acc.Key(xs[i&(len(xs)-1)]))
	}
	if allocs := testing.AllocsPerRun(10_000, func() {
		other.AddKeyed(acc.Key(xs[i&(len(xs)-1)]))
		i++
	}); allocs != 0 {
		t.Fatalf("warm Accumulator.AddKeyed allocates %v times per call", allocs)
	}
}

// TestSketchTinyValuesBoundMapGrowth pins the memory half of the bucket
// clamp: a stream sweeping the subnormal range must not mint a map key
// per magnitude, and the resulting quantiles must stay positive (the
// collapsed bucket's representative), never 0 or negative.
func TestSketchTinyValuesBoundMapGrowth(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for x := math.SmallestNonzeroFloat64; x < 0x1p-1022; x *= 2 {
		s.Add(x)
		s.Add(-x)
		n++
	}
	s.pos.each(false, func(k int, _ uint64) bool {
		if k < s.minKey || k > s.maxKey {
			t.Fatalf("subnormal stream minted out-of-range key %d", k)
		}
		return true
	})
	if s.pos.len() > 2 || s.neg.len() > 2 {
		t.Fatalf("subnormal stream grew %d pos / %d neg buckets, want them collapsed at the clamp edge",
			s.pos.len(), s.neg.len())
	}
	q, err := s.Quantile(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !(q > 0) || math.IsInf(q, 0) {
		t.Fatalf("quantile of positive subnormal observations = %g, want finite positive", q)
	}
	t.Logf("%d subnormal magnitudes -> %d pos buckets", n, s.pos.len())
}

// TestAccumulatorAgreesWithSummarize is the streaming layer's accuracy
// contract as a property: on any sample — NaN, ±Inf and single-observation
// edges included — the one-pass Accumulator reproduces stats.Summarize's
// moments within floating-point reassociation error and its median within
// the sketch's relative-error guarantee.
func TestAccumulatorAgreesWithSummarize(t *testing.T) {
	const eps = 0.01
	f := func(seedVals []float64, extreme bool) bool {
		if len(seedVals) == 0 {
			return true
		}
		// quick generates magnitudes up to MaxFloat64, where the two-pass
		// sum overflows while Welford (correctly) does not; scale into a
		// range where both definitions are exact so the comparison tests
		// the streaming layer, not float overflow.
		raw := make([]float64, len(seedVals))
		for i, v := range seedVals {
			raw[i] = v / 1e300
		}
		if extreme {
			// Exercise the special-value paths quick never generates.
			raw = append(raw, math.NaN(), math.Inf(1), math.Inf(-1), 0)
		}
		acc, err := NewAccumulator(Config{SketchEpsilon: eps, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range raw {
			acc.Add(x)
		}
		got, err := acc.Summary()
		if err != nil {
			t.Fatalf("accumulator summary: %v", err)
		}
		want, err := stats.Summarize(raw)
		if err != nil {
			t.Fatalf("summarize: %v", err)
		}
		if got.N != want.N {
			t.Fatalf("N = %d, want %d", got.N, want.N)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"mean", got.Mean, want.Mean},
			{"variance", got.Variance, want.Variance},
			{"stddev", got.StdDev, want.StdDev},
			{"c2", got.C2, want.C2},
		} {
			// ±Inf arithmetic must land on the same infinity or NaN.
			if math.IsInf(c.want, 0) {
				if c.got != c.want && !(math.IsNaN(c.got) && math.IsNaN(c.want)) {
					t.Fatalf("%s = %g, want %g (sample %v)", c.name, c.got, c.want, raw)
				}
				continue
			}
			if !bothNaNOrClose(c.got, c.want, 1e-6) {
				t.Fatalf("%s = %g, want %g (sample %v)", c.name, c.got, c.want, raw)
			}
		}
		if !bothNaNOrClose(got.Min, want.Min, 0) || !bothNaNOrClose(got.Max, want.Max, 0) {
			t.Fatalf("min/max = %g/%g, want %g/%g", got.Min, got.Max, want.Min, want.Max)
		}
		return checkMedian(t, got.Median, raw, eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkMedian verifies the sketched median against the exact order
// statistic at the sketch's anchor rank: equal for NaN/Inf/zero, within
// eps relative error for finite nonzero values.
func checkMedian(t *testing.T, got float64, raw []float64, eps float64) bool {
	t.Helper()
	if stats.ContainsNaN(raw) {
		if !math.IsNaN(got) {
			t.Fatalf("median of NaN sample = %g, want NaN", got)
		}
		return true
	}
	sorted := append([]float64(nil), raw...)
	sort.Float64s(sorted)
	want := sorted[int(math.Round(0.5*float64(len(sorted)-1)))]
	if want == 0 || math.IsInf(want, 0) {
		if got != want {
			t.Fatalf("median = %g, want exactly %g (sample %v)", got, want, raw)
		}
		return true
	}
	if math.Abs(got-want) > eps*math.Abs(want)+1e-12 {
		t.Fatalf("median = %g, want within %g%% of %g (sample %v)", got, 100*eps, want, raw)
	}
	return true
}

// TestAccumulatorSingleObservation pins the single-observation edge: all
// three structures agree with Summarize on a one-element sample.
func TestAccumulatorSingleObservation(t *testing.T) {
	acc, err := NewAccumulator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	acc.Add(42)
	got, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 1 || got.Mean != want.Mean || got.Variance != want.Variance ||
		got.C2 != want.C2 || got.Min != 42 || got.Max != 42 {
		t.Fatalf("single-observation summary %+v, want %+v", got, want)
	}
	if math.Abs(got.Median-42) > DefaultSketchEpsilon*42 {
		t.Fatalf("median = %g, want within eps of 42", got.Median)
	}
	if n := len(acc.Sample()); n != 1 {
		t.Fatalf("reservoir holds %d, want 1", n)
	}
	// Empty accumulator mirrors stats.ErrEmpty.
	empty, err := NewAccumulator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Summary(); err != stats.ErrEmpty {
		t.Fatalf("empty summary err = %v, want stats.ErrEmpty", err)
	}
}
