package stats

import "math"

// HashSample returns a 64-bit FNV-1a hash of a float sample, covering the
// length and the exact bit pattern of every value in order. It keys the
// analysis engine's per-call fit table and its bootstrap seeds: slices
// holding the same values in the same order hash equal (NaNs with
// different payloads differ). Distinct samples may collide in principle,
// so the fit table confirms every hash match by comparing the values.
func HashSample(xs []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(xs)))
	for _, x := range xs {
		mix(math.Float64bits(x))
	}
	return h
}
