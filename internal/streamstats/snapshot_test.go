package streamstats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the snapshot golden files")

// checkGolden fails unless blob equals the committed file at path (or
// rewrites the file under -update) and returns the file's bytes. The
// committed files pin the format across versions: a round trip within
// one build cannot catch an encoder and a decoder that change together.
func checkGolden(t *testing.T, path string, blob []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("encoding differs from %s (%d vs %d bytes)", path, len(blob), len(want))
	}
	return want
}

// bitsEqual compares floats by bit pattern, so NaN == NaN and -0 != 0 —
// the right notion of identity for snapshot round trips.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sliceBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// streams that exercise every counter path: plain positives, zeros,
// negatives, ±Inf, NaN, heavy repetition, single values.
func snapshotStreams() map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	long := make([]float64, 500)
	for i := range long {
		long[i] = math.Exp(rng.NormFloat64())
	}
	return map[string][]float64{
		"empty":     {},
		"single":    {3.25},
		"positives": {1, 2.5, 3.75, 100, 1e-9, 7e12},
		"mixed":     {-4, 0, 0, 5, -0.125, 2},
		"inf":       {1, math.Inf(1), 2, math.Inf(-1), 3},
		"nan":       {1, math.NaN(), 2},
		"long":      long,
	}
}

func fillAccumulator(t *testing.T, xs []float64, capacity int) *Accumulator {
	t.Helper()
	acc, err := NewAccumulator(Config{ReservoirSize: capacity, Seed: 42})
	if err != nil {
		t.Fatalf("NewAccumulator: %v", err)
	}
	for _, x := range xs {
		acc.Add(x)
	}
	return acc
}

// assertAccumulatorsIdentical checks every observable — summary fields by
// bit pattern, a grid of quantiles, the subsample, counts — match.
func assertAccumulatorsIdentical(t *testing.T, want, got *Accumulator) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("N: want %d, got %d", want.N(), got.N())
	}
	if !sliceBitsEqual(want.Sample(), got.Sample()) {
		t.Fatalf("Sample: want %v, got %v", want.Sample(), got.Sample())
	}
	if want.N() > 0 {
		ws, errW := want.Summary()
		gs, errG := got.Summary()
		if (errW == nil) != (errG == nil) {
			t.Fatalf("Summary errors diverge: %v vs %v", errW, errG)
		}
		if errW == nil {
			for _, f := range []struct {
				name string
				w, g float64
			}{
				{"Mean", ws.Mean, gs.Mean},
				{"Median", ws.Median, gs.Median},
				{"StdDev", ws.StdDev, gs.StdDev},
				{"Variance", ws.Variance, gs.Variance},
				{"C2", ws.C2, gs.C2},
				{"Min", ws.Min, gs.Min},
				{"Max", ws.Max, gs.Max},
			} {
				if !bitsEqual(f.w, f.g) {
					t.Fatalf("Summary.%s: want %v, got %v", f.name, f.w, f.g)
				}
			}
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			wq, errW := want.Quantile(q)
			gq, errG := got.Quantile(q)
			if (errW == nil) != (errG == nil) || (errW == nil && !bitsEqual(wq, gq)) {
				t.Fatalf("Quantile(%g): want (%v, %v), got (%v, %v)", q, wq, errW, gq, errG)
			}
		}
	}
}

func restored(t *testing.T, acc *Accumulator) *Accumulator {
	t.Helper()
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	out := &Accumulator{}
	if err := out.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	return out
}

func TestAccumulatorSnapshotRoundTrip(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			acc := fillAccumulator(t, xs, 16)
			assertAccumulatorsIdentical(t, acc, restored(t, acc))
		})
	}
}

// The stronger contract: after restore or clone, the accumulator
// behaves identically under further Adds. Capacity 8 over hundreds of
// adds forces replacement decisions, so a restored or cloned reservoir
// that keyed its slots off anything but (seed, seen) would change the
// subsample.
func TestAccumulatorSnapshotFutureBehavior(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			orig := fillAccumulator(t, xs, 8)
			rest := restored(t, orig)
			clone := orig.Clone()

			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 300; i++ {
				x := rng.ExpFloat64() * 50
				for _, acc := range []*Accumulator{orig, rest, clone} {
					acc.Add(x)
				}
			}
			assertAccumulatorsIdentical(t, orig, rest)
			assertAccumulatorsIdentical(t, orig, clone)
		})
	}
}

// Clone must be independent: mutating the clone leaves the original
// untouched (sketch maps and reservoir sample are deep-copied).
func TestAccumulatorCloneIndependent(t *testing.T) {
	orig := fillAccumulator(t, []float64{1, 2, 3, 4, 5}, 4)
	before, err := orig.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	clone := orig.Clone()
	for i := 0; i < 100; i++ {
		clone.Add(float64(i))
	}
	after, err := orig.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("mutating a clone changed the original accumulator")
	}
}

// Equal states must serialize to equal bytes (sorted bucket order), the
// property the service's bit-identical snapshot comparisons rely on.
func TestSnapshotDeterministicBytes(t *testing.T) {
	a := fillAccumulator(t, snapshotStreams()["long"], 16)
	b := restored(t, a)
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(ab, bb) {
		t.Fatal("restore → marshal is not byte-identical")
	}
	ab2, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(ab, ab2) {
		t.Fatal("marshal is not deterministic")
	}
}

func TestMomentsSnapshotRoundTrip(t *testing.T) {
	for name, xs := range snapshotStreams() {
		t.Run(name, func(t *testing.T) {
			var m Moments
			for _, x := range xs {
				m.Add(x)
			}
			blob, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var got Moments
			if err := got.UnmarshalBinary(blob); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			// Compare via re-marshal: byte equality is bit equality, and
			// NaN fields defeat struct ==.
			reblob, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-MarshalBinary: %v", err)
			}
			if !reflect.DeepEqual(blob, reblob) {
				t.Fatalf("moments differ: want %+v, got %+v", m, got)
			}
		})
	}
}

func TestReservoirSnapshotRNGState(t *testing.T) {
	r := NewReservoir(4, 1234)
	for i := 0; i < 1000; i++ {
		r.Add(float64(i))
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	got := &Reservoir{}
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	// Same further stream must produce the same replacement decisions.
	for i := 0; i < 1000; i++ {
		r.Add(float64(-i))
		got.Add(float64(-i))
	}
	if !reflect.DeepEqual(r.Sample(), got.Sample()) {
		t.Fatalf("post-restore samples diverge: %v vs %v", r.Sample(), got.Sample())
	}
	if r.Seen() != got.Seen() {
		t.Fatalf("seen: %d vs %d", r.Seen(), got.Seen())
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	acc := fillAccumulator(t, []float64{1, 2, 3}, 4)
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)/2],
		"wrongKind": append([]byte{'Z'}, blob[1:]...),
		"badVer":    append([]byte{blob[0], 99}, blob[2:]...),
		"trailing":  append(append([]byte(nil), blob...), 0xAB),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			got := &Accumulator{}
			if err := got.UnmarshalBinary(data); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
}

// A count field that claims more items than the blob's bytes can hold
// is refused before anything is sized by it: these blobs once made
// restore allocate gigabytes and only then fail on truncation.
func TestSnapshotRejectsHostileCounts(t *testing.T) {
	sketch := appendF64([]byte{sketchKind, snapshotVersion}, 0.01)
	for i := 0; i < 5; i++ { // zero, ±Inf, NaN and n counters
		sketch = appendU64(sketch, 0)
	}
	sketch = binary.AppendUvarint(sketch, 1<<27) // positive bucket count

	res := binary.AppendUvarint([]byte{reservoirKind, snapshotVersion}, 1<<28) // capacity
	res = appendU64(res, 1)                                                    // seed
	res = appendU64(res, 1<<28)                                                // seen
	res = binary.AppendUvarint(res, 1<<28)                                     // sample length

	for _, c := range []struct {
		name string
		blob []byte
		into interface{ UnmarshalBinary([]byte) error }
	}{
		{"sketch bucket count", sketch, &QuantileSketch{}},
		{"reservoir sample length", res, &Reservoir{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.into.UnmarshalBinary(c.blob)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("%d-byte blob: want ErrSnapshot, got %v", len(c.blob), err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Fatalf("%d-byte blob allocated %d bytes before failing", len(c.blob), d)
			}
		})
	}
}

// A reservoir's sample always holds min(seen, capacity) values; restore
// must refuse any other length, or later Adds append where they should
// replace and the restored state drifts from the original.
func TestReservoirSnapshotRejectsSampleLength(t *testing.T) {
	cases := map[string]struct {
		seen   int
		mutate func(r *Reservoir)
	}{
		"short below capacity": {3, func(r *Reservoir) { r.sample = r.sample[:2] }},
		"short at capacity":    {10, func(r *Reservoir) { r.sample = r.sample[:3] }},
		"empty after seen":     {10, func(r *Reservoir) { r.sample = nil }},
		"longer than seen":     {2, func(r *Reservoir) { r.sample = append(r.sample, 9) }},
		"longer than capacity": {10, func(r *Reservoir) { r.sample = append(r.sample, 9) }},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewReservoir(4, 1)
			for i := 0; i < c.seen; i++ {
				r.Add(float64(i))
			}
			c.mutate(r)
			blob, err := r.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := (&Reservoir{}).UnmarshalBinary(blob); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
}

// hugeSeenBlob is a reservoir snapshot with capacity 2, two samples and
// a seen count of 2^63, one past what Seen's int can report.
func hugeSeenBlob() []byte {
	blob := binary.AppendUvarint(appendHeader(nil, reservoirKind), 2) // capacity
	blob = appendU64(blob, 1)                                         // seed
	blob = appendU64(blob, 1<<63)                                     // seen
	blob = binary.AppendUvarint(blob, 2)                              // sample length
	return appendF64(appendF64(blob, 1), 2)
}

// Restore refuses a seen count past math.MaxInt64: Seen would report it
// as negative.
func TestReservoirSnapshotRejectsHugeSeen(t *testing.T) {
	if err := (&Reservoir{}).UnmarshalBinary(hugeSeenBlob()); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("want ErrSnapshot, got %v", err)
	}
}

// A blob written by an older format version is told apart from other
// corruption with ErrSnapshotVersion, which still matches ErrSnapshot;
// an unknown newer version is plain corruption.
func TestSnapshotOlderVersion(t *testing.T) {
	blob, err := fillAccumulator(t, goldenStream, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for v, wantOlder := range map[byte]bool{0: false, snapshotVersion - 1: true, snapshotVersion + 1: false} {
		old := append([]byte{blob[0], v}, blob[2:]...)
		err := (&Accumulator{}).UnmarshalBinary(old)
		if !errors.Is(err, ErrSnapshot) || errors.Is(err, ErrSnapshotVersion) != wantOlder {
			t.Errorf("version %d: got %v, want ErrSnapshot with older-version %t", v, err, wantOlder)
		}
	}
}

// sketchBlob snapshots a sketch of {1, 2, 3} after mutate has corrupted
// its state.
func sketchBlob(t *testing.T, mutate func(s *QuantileSketch)) []byte {
	t.Helper()
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	mutate(s)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// A restored bucket key outside [minKey, maxKey] would report a quantile
// of 0 or +Inf, undoing the clamp Add applies; restore must refuse it.
func TestSketchSnapshotRejectsOutOfRangeKey(t *testing.T) {
	cases := map[string]func(s *QuantileSketch){
		"pos 2^40":      func(s *QuantileSketch) { s.pos.add(1 << 40); s.n++ },
		"pos above max": func(s *QuantileSketch) { s.pos.add(s.maxKey + 1); s.n++ },
		"pos below min": func(s *QuantileSketch) { s.pos.add(s.minKey - 1); s.n++ },
		"neg above max": func(s *QuantileSketch) { s.neg.add(s.maxKey + 1); s.n++ },
		"neg below min": func(s *QuantileSketch) { s.neg.add(s.minKey - 1); s.n++ },
		"neg -2^40":     func(s *QuantileSketch) { s.neg.add(-1 << 40); s.n++ },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			got := &QuantileSketch{}
			if err := got.UnmarshalBinary(sketchBlob(t, mutate)); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
	// The edge keys themselves are reachable by Add and must restore.
	edges := sketchBlob(t, func(s *QuantileSketch) { s.pos.add(s.minKey); s.neg.add(s.maxKey); s.n += 2 })
	if err := (&QuantileSketch{}).UnmarshalBinary(edges); err != nil {
		t.Fatalf("edge keys: %v", err)
	}
}

// Bucket totals plus the zero, ±Inf and NaN counters must sum to n, or
// rank lookups walk past the end of the buckets.
func TestSketchSnapshotRejectsCountMismatch(t *testing.T) {
	cases := map[string]func(s *QuantileSketch){
		"n too large":    func(s *QuantileSketch) { s.n += 5 },
		"n too small":    func(s *QuantileSketch) { s.n-- },
		"extra bucket":   func(s *QuantileSketch) { s.pos.add(0) },
		"extra zero":     func(s *QuantileSketch) { s.zero++ },
		"extra +Inf":     func(s *QuantileSketch) { s.posInf++ },
		"extra -Inf":     func(s *QuantileSketch) { s.negInf++ },
		"extra NaN":      func(s *QuantileSketch) { s.nan++ },
		"sum wraps to n": func(s *QuantileSketch) { s.zero = math.MaxUint64 - 2; s.nan = 3 },
		"empty with n=1": func(s *QuantileSketch) { s.pos = bucketCounts{}; s.n = 1 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			got := &QuantileSketch{}
			if err := got.UnmarshalBinary(sketchBlob(t, mutate)); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
}

// rawSketchBlob encodes an eps-0.01 sketch snapshot with the given
// bucket entries written as-is, in order, so a test can build blobs that
// appendBuckets never writes. Each entry is a {key, count} pair.
func rawSketchBlob(n uint64, pos, neg [][2]int64) []byte {
	return rawSketchBlobEps(0.01, n, pos, neg)
}

// rawSketchBlobEps is rawSketchBlob at a given epsilon.
func rawSketchBlobEps(eps float64, n uint64, pos, neg [][2]int64) []byte {
	buf := appendHeader(nil, sketchKind)
	buf = appendF64(buf, eps)
	for _, c := range []uint64{0, 0, 0, 0, n} {
		buf = appendU64(buf, c)
	}
	for _, entries := range [][][2]int64{pos, neg} {
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = binary.AppendVarint(buf, e[0])
			buf = binary.AppendUvarint(buf, uint64(e[1]))
		}
	}
	return buf
}

// Bucket entries must be strictly increasing with nonzero counts, as
// appendBuckets writes them. Each blob but the last has an n that
// matches what a decoder overwriting repeated keys keeps, so the counts
// check alone accepts it; the last matches one that sums them.
func TestSketchSnapshotRejectsNonCanonicalBuckets(t *testing.T) {
	canonical := [][2]int64{{0, 1}, {35, 1}, {55, 1}}
	if err := (&QuantileSketch{}).UnmarshalBinary(rawSketchBlob(3, canonical, nil)); err != nil {
		t.Fatalf("canonical blob: %v", err)
	}
	cases := map[string][]byte{
		"pos duplicate key":  rawSketchBlob(3, [][2]int64{{0, 1}, {0, 1}, {35, 1}, {55, 1}}, nil),
		"pos descending":     rawSketchBlob(3, [][2]int64{{35, 1}, {0, 1}, {55, 1}}, nil),
		"pos zero count":     rawSketchBlob(3, [][2]int64{{0, 1}, {35, 1}, {55, 1}, {60, 0}}, nil),
		"neg duplicate key":  rawSketchBlob(4, canonical, [][2]int64{{7, 5}, {7, 1}}),
		"neg descending":     rawSketchBlob(5, canonical, [][2]int64{{7, 1}, {-7, 1}}),
		"neg zero count":     rawSketchBlob(3, canonical, [][2]int64{{7, 0}}),
		"duplicate, summing": rawSketchBlob(4, [][2]int64{{0, 1}, {0, 1}, {35, 1}, {55, 1}}, nil),
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			if err := (&QuantileSketch{}).UnmarshalBinary(blob); !errors.Is(err, ErrSnapshot) {
				t.Fatalf("want ErrSnapshot, got %v", err)
			}
		})
	}
}

// goldenStream fills the golden accumulator: every sketch counter, both
// bucket signs, and more values than the reservoir holds, so its
// generator state has advanced.
var goldenStream = []float64{1, 2.5, -4, 0, 3.75, 100, 1e-9, math.Inf(1), math.NaN(), 7e12, -0.125, 2}

// An Accumulator snapshot of a fixed state encodes to the committed
// bytes, and those bytes decode and re-encode unchanged.
func TestSnapshotGolden(t *testing.T) {
	blob, err := fillAccumulator(t, goldenStream, 4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := checkGolden(t, "testdata/accumulator.golden", blob)
	got := &Accumulator{}
	if err := got.UnmarshalBinary(want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	reblob, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reblob, want) {
		t.Fatal("decoding and re-encoding the golden snapshot changed its bytes")
	}
}
