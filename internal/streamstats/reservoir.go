package streamstats

import "math/bits"

// Reservoir keeps a uniform random subsample of fixed capacity from a
// stream of unknown length (Vitter's Algorithm R). The replacement slot
// of the i-th observation is a pure function of (seed, i), so the whole
// state is (capacity, seed, seen, sample): the subsample is deterministic
// for a given (seed, stream) pair, and a copy or a restored snapshot
// makes the same future replacement decisions at O(sample) cost. It
// bounds the input to the existing MLE fitters when the full sample
// cannot be held. Construct with NewReservoir.
type Reservoir struct {
	capacity int
	seed     int64
	seen     uint64
	sample   []float64
}

// DefaultReservoirSize is the capacity used when NewReservoir is given a
// non-positive one. 10k observations keep every fitter in the repository
// well past its asymptotic regime while bounding memory.
const DefaultReservoirSize = 10000

// NewReservoir builds a seeded reservoir; capacity <= 0 uses
// DefaultReservoirSize.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = DefaultReservoirSize
	}
	// The sample grows on demand rather than preallocating capacity:
	// analyses shard a stream into many reservoirs, most of which see far
	// fewer observations than the cap.
	return &Reservoir{capacity: capacity, seed: seed}
}

// Clone returns an independent deep copy with the same subsample and the
// same future Add behavior.
func (r *Reservoir) Clone() *Reservoir {
	c := *r
	c.sample = append([]float64(nil), r.sample...)
	return &c
}

// Add folds one observation into the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if n := len(r.sample); n < r.capacity {
		if n == cap(r.sample) {
			r.grow()
		}
		r.sample = append(r.sample, x)
		return
	}
	if j := slot(r.seed, r.seen); j < uint64(r.capacity) {
		r.sample[j] = x
	}
}

// grow doubles the sample's storage, up to the capacity. Left to
// append, storage past a few hundred values grows by about a quarter at
// a time, so filling a reservoir would allocate about five times its
// final size and end above the capacity; doubling allocates about twice
// and ends at it.
func (r *Reservoir) grow() {
	s := make([]float64, len(r.sample), min(max(2*cap(r.sample), 16), r.capacity))
	copy(s, r.sample)
	r.sample = s
}

// slot returns the Algorithm R draw for the i-th observation (i >= 1):
// an index uniform on [0, i) that depends only on (seed, i). Lemire's
// multiply-high maps a 64-bit draw onto [0, i); a draw whose low half
// falls below 2^64 mod i is rejected, which makes every index exactly
// equally likely, and the retry counter is folded into the key so the
// redrawn value is still a function of (seed, i) alone.
func slot(seed int64, i uint64) uint64 {
	for try := uint64(0); ; try++ {
		hi, lo := bits.Mul64(slotDraw(seed, i, try), i)
		if lo >= i || lo >= -i%i {
			return hi
		}
	}
}

// slotDraw is the try-th 64-bit draw keyed by (seed, i): output i of a
// splitmix64 generator seeded from (seed, try). Keying each draw by its
// coordinates, not by how many draws came before, is the discipline the
// engine's shard and bootstrap-rep seeds follow too.
func slotDraw(seed int64, i, try uint64) uint64 {
	return mix64(mix64(uint64(seed)^try*0xd1b54a32d192ed03) + i*0x9e3779b97f4a7c15)
}

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Sample returns a copy of the current subsample, in insertion order.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.sample))
	copy(out, r.sample)
	return out
}
