package streamstats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// mapSketch is the sketch's earlier bucket store, kept as a test oracle:
// one map[int]uint64 per sign, sorted on every Quantile and snapshot.
// Its keys come from slowBucket, the exact bucket definition, so
// comparing it with QuantileSketch checks both the dense store and
// bucket's fast path.
type mapSketch struct {
	geom   *QuantileSketch
	pos    map[int]uint64
	neg    map[int]uint64
	zero   uint64
	posInf uint64
	negInf uint64
	nan    uint64
	n      uint64
}

func newMapSketch(eps float64) *mapSketch {
	return &mapSketch{geom: newSketch(eps), pos: make(map[int]uint64), neg: make(map[int]uint64)}
}

func (s *mapSketch) N() int { return int(s.n) }

func (s *mapSketch) Add(x float64) {
	s.n++
	switch {
	case math.IsNaN(x):
		s.nan++
	case math.IsInf(x, 1):
		s.posInf++
	case math.IsInf(x, -1):
		s.negInf++
	case x == 0:
		s.zero++
	case x > 0:
		s.pos[s.geom.slowBucket(x)]++
	default:
		s.neg[s.geom.slowBucket(-x)]++
	}
}

func (s *mapSketch) Quantile(q float64) (float64, error) {
	if s.n == 0 {
		return math.NaN(), ErrEmptySketch
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN(), fmt.Errorf("streamstats: quantile %g outside [0, 1]", q)
	}
	if s.nan > 0 {
		return math.NaN(), ErrNaNSketch
	}
	rank := uint64(math.Round(q * float64(s.n-1)))
	var seen uint64
	if s.negInf > 0 {
		seen += s.negInf
		if rank < seen {
			return math.Inf(-1), nil
		}
	}
	for _, k := range s.sortedKeys(s.neg, true) {
		seen += s.neg[k]
		if rank < seen {
			return -s.geom.value(k), nil
		}
	}
	if s.zero > 0 {
		seen += s.zero
		if rank < seen {
			return 0, nil
		}
	}
	for _, k := range s.sortedKeys(s.pos, false) {
		seen += s.pos[k]
		if rank < seen {
			return s.geom.value(k), nil
		}
	}
	return math.Inf(1), nil
}

func (s *mapSketch) sortedKeys(m map[int]uint64, descending bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	if descending {
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	return keys
}

func appendMapBuckets(buf []byte, m map[int]uint64) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendUvarint(buf, m[k])
	}
	return buf
}

func (s *mapSketch) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, sketchKind)
	buf = appendF64(buf, s.geom.eps)
	buf = appendU64(buf, s.zero)
	buf = appendU64(buf, s.posInf)
	buf = appendU64(buf, s.negInf)
	buf = appendU64(buf, s.nan)
	buf = appendU64(buf, s.n)
	buf = appendMapBuckets(buf, s.pos)
	buf = appendMapBuckets(buf, s.neg)
	return buf, nil
}

// fuzzEpsilons are the accuracies FuzzSketchAdd picks from.
var fuzzEpsilons = []float64{MinSketchEpsilon, 1e-4, 0.01, 0.1, 0.9}

// fuzzValues decodes a fuzz input into observations. With dense unset
// each 8 bytes are one float64's bits, which reach every special value
// and magnitude; with it set each byte is one value within a factor of
// 2^16 of 1, so the keys crowd one window and exercise its growth.
func fuzzValues(data []byte, dense bool) []float64 {
	var xs []float64
	if dense {
		for _, b := range data {
			x := math.Ldexp(1+float64(b&7)/8, int(b>>3)-16)
			if b&1 == 1 {
				x = -x
			}
			xs = append(xs, x)
		}
		return xs
	}
	for ; len(data) >= 8; data = data[8:] {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return xs
}

// float64Bytes is the non-dense fuzz encoding of xs.
func float64Bytes(xs ...float64) []byte {
	var buf []byte
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// FuzzSketchAdd feeds the same observations to a QuantileSketch and to
// mapSketch, the earlier map store keyed by slowBucket, and requires the
// same N, the same quantiles to the bit and byte-equal snapshots. Halfway
// through, the sketch is swapped for its decoded snapshot, so restored
// window layouts are held to the same contract under further Adds.
func FuzzSketchAdd(f *testing.F) {
	sub := math.SmallestNonzeroFloat64
	f.Add(uint8(2), false, float64Bytes(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -3, 7.5))
	f.Add(uint8(0), false, float64Bytes(sub, -sub, 0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64))
	f.Add(uint8(2), false, float64Bytes(1e-300, 1e300, 1e-300, 1e300, 1, 60, 3600, 86400))
	f.Add(uint8(4), false, float64Bytes(1, 1.5, 2, 1e3, -1e3, 1e-3))
	f.Add(uint8(1), true, []byte("the fold's samples span seconds to weeks"))
	f.Add(uint8(3), true, []byte{0, 255, 128, 7, 8, 9, 200, 201})
	f.Fuzz(func(t *testing.T, epsIndex uint8, dense bool, data []byte) {
		eps := fuzzEpsilons[int(epsIndex)%len(fuzzEpsilons)]
		got, err := NewQuantileSketch(eps)
		if err != nil {
			t.Fatal(err)
		}
		want := newMapSketch(eps)
		xs := fuzzValues(data, dense)
		for i, x := range xs {
			if i == len(xs)/2 {
				blob, err := got.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				got = &QuantileSketch{}
				if err := got.UnmarshalBinary(blob); err != nil {
					t.Fatalf("restore after %d values: %v", i, err)
				}
			}
			got.Add(x)
			want.Add(x)
		}
		if got.N() != want.N() {
			t.Fatalf("N = %d, map store %d", got.N(), want.N())
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			g, errG := got.Quantile(q)
			w, errW := want.Quantile(q)
			if !errors.Is(errG, errW) || !bitsEqual(g, w) {
				t.Fatalf("eps %g: Quantile(%g) = (%v, %v), map store (%v, %v)", eps, q, g, errG, w, errW)
			}
		}
		gb, _ := got.MarshalBinary()
		wb, _ := want.MarshalBinary()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("eps %g: snapshot differs from the map store's:\n got %x\nwant %x", eps, gb, wb)
		}
	})
}

// bucketCounts must list exactly the entries a map keeps, in key order
// either way, whatever mix of window growth, spilling and migration the
// insertion order causes. Odd trials start from a load of sparse
// entries, whose short window later Adds grow over spilled keys.
func TestBucketCountsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		var b bucketCounts
		want := map[int]uint64{}
		if trial%2 == 1 {
			var entries []bucketEntry
			for k := rng.Intn(100); k < 4000; k += 1 + rng.Intn(400) {
				entries = append(entries, bucketEntry{key: k, count: 2})
				want[k] = 2
			}
			b.load(entries)
		}
		spread := 1 << (4 + rng.Intn(12))
		for i := 0; i < 500; i++ {
			k := rng.Intn(2*spread) - spread
			if rng.Intn(10) == 0 {
				k *= 64 // far keys spill
			}
			b.add(k)
			want[k]++
		}
		if len(b.counts) > maxDenseSpan {
			t.Fatalf("window of %d slots, cap %d", len(b.counts), maxDenseSpan)
		}
		if b.len() != len(want) {
			t.Fatalf("trial %d: %d entries, map has %d", trial, b.len(), len(want))
		}
		keys := make([]int, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, desc := range []bool{false, true} {
			var got []int
			b.each(desc, func(k int, c uint64) bool {
				if c != want[k] {
					t.Fatalf("trial %d: key %d count %d, map %d", trial, k, c, want[k])
				}
				got = append(got, k)
				return true
			})
			for i := range keys {
				k := keys[i]
				if desc {
					k = keys[len(keys)-1-i]
				}
				if i >= len(got) || got[i] != k {
					t.Fatalf("trial %d desc=%t: key order %v, want %v", trial, desc, got, keys)
				}
			}
		}
	}
}

// allocatedBytes returns the bytes fn allocates, averaged over runs.
func allocatedBytes(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A snapshot holding one bucket at minKey and one at maxKey at eps 1e-6
// spans about 7e8 keys. It must decode to the same entries, and the
// decode must allocate in proportion to its two entries, not to the span.
func TestSketchSnapshotHostileSpan(t *testing.T) {
	geom := newSketch(1e-6)
	lo, hi := int64(geom.minKey), int64(geom.maxKey)
	t.Logf("eps 1e-6 key span %d", hi-lo)
	blob := rawSketchBlobEps(1e-6, 3, [][2]int64{{lo, 1}, {hi, 1}}, [][2]int64{{lo, 1}})
	var s QuantileSketch
	if err := s.UnmarshalBinary(blob); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again, _ := s.MarshalBinary(); !bytes.Equal(again, blob) {
		t.Fatal("hostile-span snapshot does not re-marshal to its own bytes")
	}
	if got := allocatedBytes(100, func() { _ = (&QuantileSketch{}).UnmarshalBinary(blob) }); got > 4<<10 {
		t.Fatalf("decoding a 3-entry snapshot allocates %d bytes", got)
	}
	// An entry past maxKey is refused before anything is laid out.
	bad := rawSketchBlobEps(1e-6, 2, [][2]int64{{lo, 1}, {1 << 62, 1}}, nil)
	if err := (&QuantileSketch{}).UnmarshalBinary(bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("key 2^62: want ErrSnapshot, got %v", err)
	}
}

// A stream alternating 1e-300 and 1e300 puts its two keys about 69,000
// apart at eps 0.01. The window must not stretch to cover both: one key
// stays in the window, the other spills, and the quantiles stay exact.
func TestSketchAlternatingExtremesBoundMemory(t *testing.T) {
	s, err := NewQuantileSketch(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		s.Add(1e-300)
		s.Add(1e300)
	}
	if len(s.pos.counts) > initialSpan || len(s.pos.spill) > 1 || s.pos.len() != 2 {
		t.Fatalf("window %d slots, spill %d keys, %d entries; want at most %d slots, 1 spilled key, 2 entries",
			len(s.pos.counts), len(s.pos.spill), s.pos.len(), initialSpan)
	}
	for q, want := range map[float64]float64{0: 1e-300, 1: 1e300} {
		got, err := s.Quantile(q)
		if err != nil || math.Abs(got-want)/want > 0.01 {
			t.Fatalf("Quantile(%g) = %g, %v; want %g within 1%%", q, got, err, want)
		}
	}
}
