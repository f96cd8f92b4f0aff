package streamstats

import (
	"errors"
	"os"
	"testing"
)

// FuzzSketchSnapshot throws arbitrary bytes at the sketch decoder, which
// a daemon restart runs on every shard. It must never panic, must report
// every rejection as ErrSnapshot, and a blob it accepts must re-marshal
// to one that decodes to the same N and quantiles.
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
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			w, errW := s.Quantile(q)
			g, errG := got.Quantile(q)
			if (errW == nil) != (errG == nil) || !bitsEqual(w, g) {
				t.Fatalf("Quantile(%g): (%v, %v) after re-marshal, (%v, %v) before", q, g, errG, w, errW)
			}
		}
	})
}
