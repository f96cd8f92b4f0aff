package streamstats

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"hpcfail/internal/binx"
)

// FuzzSketchSnapshot throws arbitrary bytes at the sketch decoder, which
// a daemon restart runs on every shard. It must never panic, must report
// every rejection as ErrSnapshot, and a blob it accepts must re-marshal
// to one that decodes to the same N, quantiles and number of bucket
// entries the blob declared, so no entry is silently dropped.
func FuzzSketchSnapshot(f *testing.F) {
	golden, acc := goldenAccumulator(f)
	blob, err := acc.sketch.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add(golden)
	f.Add([]byte{})
	f.Add(rawSketchBlob(3, [][2]int64{{0, 1}, {0, 1}, {35, 1}, {55, 1}}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s QuantileSketch
		if err := s.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("rejection is not ErrSnapshot: %v", err)
			}
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got QuantileSketch
		if err := got.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-marshalled sketch rejected: %v", err)
		}
		if got.N() != s.N() {
			t.Fatalf("N: %d after re-marshal, %d before", got.N(), s.N())
		}
		if declared, kept := declaredBuckets(data), got.pos.len()+got.neg.len(); kept != declared {
			t.Fatalf("re-marshal keeps %d bucket entries, blob declared %d", kept, declared)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			w, errW := s.Quantile(q)
			g, errG := got.Quantile(q)
			if (errW == nil) != (errG == nil) || !bitsEqual(w, g) {
				t.Fatalf("Quantile(%g): (%v, %v) after re-marshal, (%v, %v) before", q, g, errG, w, errW)
			}
		}
	})
}

// goldenAccumulator decodes the committed accumulator snapshot.
func goldenAccumulator(f *testing.F) ([]byte, *Accumulator) {
	golden, err := os.ReadFile("testdata/accumulator.golden")
	if err != nil {
		f.Fatal(err)
	}
	var acc Accumulator
	if err := acc.UnmarshalBinary(golden); err != nil {
		f.Fatal(err)
	}
	return golden, &acc
}

// snapshotCodec is one decoder under fuzz: it decodes, re-encodes and
// takes one more observation.
type snapshotCodec interface {
	UnmarshalBinary([]byte) error
	MarshalBinary() ([]byte, error)
	Add(float64)
}

// fuzzSnapshot is the contract every snapshot decoder meets on arbitrary
// bytes: no panic, every rejection is ErrSnapshot, and an accepted blob
// is canonical — it re-marshals to exactly its own bytes — and the
// restored state takes further Adds without panicking.
func fuzzSnapshot(t *testing.T, v snapshotCodec, data []byte) {
	if err := v.UnmarshalBinary(data); err != nil {
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("rejection is not ErrSnapshot: %v", err)
		}
		return
	}
	again, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("accepted blob re-marshals to different bytes:\n got %x\nwant %x", again, data)
	}
	for _, x := range []float64{1, 0.5, 1e300} {
		v.Add(x)
	}
}

// FuzzReservoirSnapshot throws arbitrary bytes at the reservoir decoder.
// Its seeds include a seen count past math.MaxInt64, which restore must
// refuse.
func FuzzReservoirSnapshot(f *testing.F) {
	_, acc := goldenAccumulator(f)
	blob, err := acc.res.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add(hugeSeenBlob())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzSnapshot(t, &Reservoir{}, data) })
}

// FuzzAccumulatorSnapshot throws arbitrary bytes at the accumulator
// decoder, which a daemon restart runs on every shard's two samples.
func FuzzAccumulatorSnapshot(f *testing.F) {
	golden, _ := goldenAccumulator(f)
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(append([]byte{golden[0], snapshotVersion - 1}, golden[2:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzSnapshot(t, &Accumulator{}, data) })
}

// declaredBuckets returns the number of bucket entries a sketch blob
// declares: the pos and neg entry counts after the fixed-width fields.
func declaredBuckets(data []byte) int {
	r := binx.NewReader(data, ErrSnapshot)
	r.Bytes(2 + 8*6)
	declared := 0
	for range 2 {
		n := r.Count(2)
		declared += n
		for range n {
			r.Varint()
			r.Uvarint()
		}
	}
	return declared
}
