package streamstats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"hpcfail/internal/binx"
)

// Versioned binary snapshot/restore for every streaming structure. The
// format is the crash-recovery contract of the analytics service: a
// restored structure is indistinguishable from the original — identical
// Quantile/Mean/Seen answers AND identical future Add behavior. The
// reservoir needs no generator state for that: its replacement slots are
// a function of (seed, seen), both of which the snapshot stores. Each
// blob opens with a one-byte kind tag and a one-byte version so mixed-up
// or stale blobs fail loudly instead of decoding garbage.
//
// Encodings are deterministic (sketch buckets are written in sorted key
// order), so equal states produce byte-equal snapshots — the property the
// service's kill-and-restore chaos tests pin.
const (
	momentsKind     byte = 'M'
	sketchKind      byte = 'Q'
	reservoirKind   byte = 'R'
	accumulatorKind byte = 'A'

	// snapshotVersion 2 dropped the reservoir's generator draw count,
	// which version 1 stored after seen.
	snapshotVersion byte = 2
)

// ErrSnapshot is wrapped by every decode failure, so callers can
// distinguish a corrupt blob from other errors with errors.Is.
var ErrSnapshot = errors.New("streamstats: corrupt snapshot")

// ErrSnapshotVersion wraps ErrSnapshot for a blob written by an older
// version of this format: well-formed once, but no longer decodable.
// Callers that keep the inputs a snapshot was folded from can rebuild
// the state instead of refusing it.
var ErrSnapshotVersion = fmt.Errorf("%w: older format version", ErrSnapshot)

// readHeader reads a blob's kind and version tags and checks them.
func readHeader(r *binx.Reader, kind byte) error {
	k, v := r.Byte(), r.Byte()
	if err := r.Err(); err != nil {
		return err
	}
	if k != kind {
		return fmt.Errorf("%w: kind %q, want %q", ErrSnapshot, k, kind)
	}
	if v != snapshotVersion {
		sentinel := ErrSnapshot
		if v > 0 && v < snapshotVersion {
			sentinel = ErrSnapshotVersion
		}
		return fmt.Errorf("%w: version %d, want %d", sentinel, v, snapshotVersion)
	}
	return nil
}

func appendHeader(buf []byte, kind byte) []byte {
	return append(buf, kind, snapshotVersion)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Moments) MarshalBinary() ([]byte, error) {
	buf := appendHeader(make([]byte, 0, 2+8*5+1), momentsKind)
	buf = appendU64(buf, m.n)
	buf = appendF64(buf, m.mean)
	buf = appendF64(buf, m.m2)
	buf = appendF64(buf, m.min)
	buf = appendF64(buf, m.max)
	buf = appendBool(buf, m.hasNaN)
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing m.
func (m *Moments) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, momentsKind); err != nil {
		return err
	}
	out := Moments{
		n:    r.U64(),
		mean: r.F64(),
		m2:   r.F64(),
		min:  r.F64(),
		max:  r.F64(),
	}
	hasNaN := r.Byte()
	if err := r.Done(); err != nil {
		return err
	}
	if hasNaN > 1 {
		return fmt.Errorf("%w: moments NaN flag %d", ErrSnapshot, hasNaN)
	}
	out.hasNaN = hasNaN == 1
	*m = out
	return nil
}

// appendBuckets writes one sign's bucket map in sorted key order.
func appendBuckets(buf []byte, m map[int]uint64) []byte {
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

// readBuckets reads one sign's bucket map. An entry is a varint key and
// a uvarint count, so the entry count is bounded at two bytes an entry.
// appendBuckets writes keys strictly increasing with nonzero counts, and
// no Add makes anything else, so any other entry is rejected: a
// repeated key would otherwise silently keep only its last count.
func readBuckets(r *binx.Reader) (map[int]uint64, error) {
	n := r.Count(2)
	m := make(map[int]uint64, n)
	var prev int64
	for i := 0; i < n; i++ {
		k, c := r.Varint(), r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("%w: sketch bucket key %d after %d, want strictly increasing", ErrSnapshot, k, prev)
		}
		if c == 0 {
			return nil, fmt.Errorf("%w: sketch bucket key %d has count 0", ErrSnapshot, k)
		}
		m[int(k)] = c
		prev = k
	}
	return m, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *QuantileSketch) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, sketchKind)
	buf = appendF64(buf, s.eps)
	buf = appendU64(buf, s.zero)
	buf = appendU64(buf, s.posInf)
	buf = appendU64(buf, s.negInf)
	buf = appendU64(buf, s.nan)
	buf = appendU64(buf, s.n)
	buf = appendBuckets(buf, s.pos)
	buf = appendBuckets(buf, s.neg)
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing s.
// Gamma and its log are rederived from the stored epsilon bits, so bucket
// boundaries of future Adds are bit-identical to the snapshotted sketch's.
func (s *QuantileSketch) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, sketchKind); err != nil {
		return err
	}
	eps := r.F64()
	zero, posInf, negInf, nan, n := r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	pos, err := readBuckets(r)
	if err != nil {
		return err
	}
	neg, err := readBuckets(r)
	if err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	// A non-positive epsilon would restore as the default one.
	if !(eps > 0) {
		return fmt.Errorf("%w: sketch epsilon %g", ErrSnapshot, eps)
	}
	out, err := NewQuantileSketch(eps)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	out.zero, out.posInf, out.negInf, out.nan, out.n = zero, posInf, negInf, nan, n
	out.pos, out.neg = pos, neg
	if err := out.checkRestored(); err != nil {
		return err
	}
	*s = *out
	return nil
}

// checkRestored rejects decoded state that no sequence of Adds
// produces: a bucket key outside [minKey, maxKey], whose representative
// value would be 0 or +Inf, or counters that do not sum to n.
func (s *QuantileSketch) checkRestored() error {
	var sum, carry uint64
	add := func(c uint64) {
		var cc uint64
		sum, cc = bits.Add64(sum, c, 0)
		carry |= cc
	}
	for _, c := range []uint64{s.zero, s.posInf, s.negInf, s.nan} {
		add(c)
	}
	for _, m := range []map[int]uint64{s.pos, s.neg} {
		for k, c := range m {
			if k < s.minKey || k > s.maxKey {
				return fmt.Errorf("%w: sketch bucket key %d outside [%d, %d]", ErrSnapshot, k, s.minKey, s.maxKey)
			}
			add(c)
		}
	}
	if carry != 0 || sum != s.n {
		return fmt.Errorf("%w: sketch counts do not sum to n = %d", ErrSnapshot, s.n)
	}
	return nil
}

// Clone returns an independent deep copy of the sketch.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := *s
	c.pos = make(map[int]uint64, len(s.pos))
	for k, v := range s.pos {
		c.pos[k] = v
	}
	c.neg = make(map[int]uint64, len(s.neg))
	for k, v := range s.neg {
		c.neg[k] = v
	}
	return &c
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *Reservoir) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, reservoirKind)
	buf = binary.AppendUvarint(buf, uint64(r.capacity))
	buf = appendU64(buf, uint64(r.seed))
	buf = appendU64(buf, r.seen)
	buf = binary.AppendUvarint(buf, uint64(len(r.sample)))
	for _, x := range r.sample {
		buf = appendF64(buf, x)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing r.
func (r *Reservoir) UnmarshalBinary(data []byte) error {
	br := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(br, reservoirKind); err != nil {
		return err
	}
	capacity, seed, seen := br.Uvarint(), int64(br.U64()), br.U64()
	n := br.Count(8)
	if err := br.Err(); err != nil {
		return err
	}
	if capacity == 0 || capacity > math.MaxInt32 {
		return fmt.Errorf("%w: reservoir capacity %d", ErrSnapshot, capacity)
	}
	// Seen returns an int, so seen must fit in one.
	if seen > math.MaxInt64 {
		return fmt.Errorf("%w: reservoir seen %d", ErrSnapshot, seen)
	}
	// Add keeps the sample at exactly min(seen, capacity): a shorter one
	// would make the restored reservoir append where it should replace,
	// diverging from one that was never snapshotted.
	if uint64(n) != min(capacity, seen) {
		return fmt.Errorf("%w: reservoir sample %d, want min(capacity %d, seen %d)", ErrSnapshot, n, capacity, seen)
	}
	out := Reservoir{capacity: int(capacity), seed: seed, seen: seen, sample: make([]float64, n)}
	for i := range out.sample {
		out.sample[i] = br.F64()
	}
	if err := br.Done(); err != nil {
		return err
	}
	*r = out
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: the three
// sub-structures, each length-prefixed.
func (a *Accumulator) MarshalBinary() ([]byte, error) {
	buf := appendHeader(nil, accumulatorKind)
	for _, part := range []interface{ MarshalBinary() ([]byte, error) }{&a.moments, a.sketch, a.res} {
		b, err := part.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing a.
func (a *Accumulator) UnmarshalBinary(data []byte) error {
	r := binx.NewReader(data, ErrSnapshot)
	if err := readHeader(r, accumulatorKind); err != nil {
		return err
	}
	var out Accumulator
	out.sketch = &QuantileSketch{}
	out.res = &Reservoir{}
	for _, part := range []interface{ UnmarshalBinary([]byte) error }{&out.moments, out.sketch, out.res} {
		b := r.Bytes(r.Count(1))
		if err := r.Err(); err != nil {
			return err
		}
		if err := part.UnmarshalBinary(b); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*a = out
	return nil
}

// Clone returns an independent deep copy of the accumulator at
// O(sample) cost: identical summaries, quantiles and subsample, and
// identical future Add behavior.
func (a *Accumulator) Clone() *Accumulator {
	return &Accumulator{
		moments: a.moments,
		sketch:  a.sketch.Clone(),
		res:     a.res.Clone(),
	}
}
