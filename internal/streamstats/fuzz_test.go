package streamstats

import (
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
	golden, err := os.ReadFile("testdata/accumulator.golden")
	if err != nil {
		f.Fatal(err)
	}
	var acc Accumulator
	if err := acc.UnmarshalBinary(golden); err != nil {
		f.Fatal(err)
	}
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
		if declared, kept := declaredBuckets(data), len(got.pos)+len(got.neg); kept != declared {
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
