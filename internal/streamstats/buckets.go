package streamstats

import (
	"maps"
	"slices"
	"sort"
)

// maxDenseSpan caps the dense window of a bucketCounts at 4096 keys
// (32 KiB of counts). At eps 0.01 that spans a factor of about 1e35 in
// magnitude, so the seconds-to-years samples of a fold never leave it.
const maxDenseSpan = 1 << 12

// initialSpan is the dense window's size at its first key, centred on
// it.
const initialSpan = 64

// bucketCounts is one sign's bucket counts: a dense window of counts
// over the keys seen so far, and a spill map for keys that would stretch
// the window past maxDenseSpan, allocated only when one arrives. A key
// is either inside the window or in the spill map, never both, and
// every spill count is nonzero; window slots with count 0 are keys never
// seen.
type bucketCounts struct {
	lo     int // key of counts[0]
	counts []uint64
	spill  map[int]uint64
}

// add counts one observation in bucket k.
func (b *bucketCounts) add(k int) {
	if i := uint(k - b.lo); i < uint(len(b.counts)) {
		b.counts[i]++
		return
	}
	b.insert(k, 1)
}

// insert adds c to bucket k when k is outside the window: it grows the
// window to cover k if the span stays within maxDenseSpan, moving any
// spill keys the grown window covers into it, and spills k otherwise.
// Only a window from load can grow over spilled keys: a key insert
// spills lies more than maxDenseSpan from the window's far end, and
// growth never moves that end.
func (b *bucketCounts) insert(k int, c uint64) {
	if len(b.counts) == 0 {
		b.lo, b.counts = k-initialSpan/2, make([]uint64, initialSpan)
		b.counts[k-b.lo] += c
		return
	}
	hi := b.lo + len(b.counts) - 1
	need := max(hi, k) - min(b.lo, k) + 1
	if need > maxDenseSpan {
		if b.spill == nil {
			b.spill = make(map[int]uint64)
		}
		b.spill[k] += c
		return
	}
	// Grow to k plus the slack the first key gets on each side, so
	// windows over sparse shards stay near their key span; each growth
	// adds over initialSpan/2 slots, so a window grows at most
	// maxDenseSpan/(initialSpan/2) times.
	span := min(need+initialSpan/2, maxDenseSpan)
	lo := b.lo
	if k < b.lo {
		lo = hi - span + 1
	}
	counts := make([]uint64, span)
	copy(counts[b.lo-lo:], b.counts)
	b.lo, b.counts = lo, counts
	for sk, sc := range b.spill {
		if i := uint(sk - lo); i < uint(span) {
			counts[i] += sc
			delete(b.spill, sk)
		}
	}
	counts[k-lo] += c
}

// bucketEntry is one (key, count) entry of a bucketCounts.
type bucketEntry struct {
	key   int
	count uint64
}

// load replaces b with entries, which must have strictly increasing keys
// and nonzero counts. The window starts at the first key and covers the
// following keys while its span stays within maxDenseSpan and within 16
// slots per entry, so a decoded blob allocates in proportion to its
// entry count, never to its key span; later keys spill.
func (b *bucketCounts) load(entries []bucketEntry) {
	*b = bucketCounts{}
	if len(entries) == 0 {
		return
	}
	lo := entries[0].key
	span := min(entries[len(entries)-1].key-lo+1, maxDenseSpan, initialSpan+16*len(entries))
	b.lo, b.counts = lo, make([]uint64, span)
	for _, e := range entries {
		if i := uint(e.key - lo); i < uint(span) {
			b.counts[i] = e.count
		} else {
			if b.spill == nil {
				b.spill = make(map[int]uint64)
			}
			b.spill[e.key] = e.count
		}
	}
}

// len returns the number of entries: keys with a nonzero count.
func (b *bucketCounts) len() int {
	n := len(b.spill)
	for _, c := range b.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// each calls fn on every entry in ascending key order, or descending if
// desc is set, until fn returns false. Spill keys all lie outside the
// window, so the order is the spill keys below it, the window, then the
// spill keys above it; only a non-empty spill map costs a sort.
func (b *bucketCounts) each(desc bool, fn func(k int, c uint64) bool) {
	var below, above []int
	if len(b.spill) > 0 {
		keys := make([]int, 0, len(b.spill))
		for k := range b.spill {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		cut := sort.SearchInts(keys, b.lo)
		below, above = keys[:cut], keys[cut:]
	}
	spilled := func(keys []int) bool {
		for i := range keys {
			if desc {
				i = len(keys) - 1 - i
			}
			if !fn(keys[i], b.spill[keys[i]]) {
				return false
			}
		}
		return true
	}
	window := func() bool {
		for i := range b.counts {
			if desc {
				i = len(b.counts) - 1 - i
			}
			if c := b.counts[i]; c != 0 && !fn(b.lo+i, c) {
				return false
			}
		}
		return true
	}
	if desc {
		_ = spilled(above) && window() && spilled(below)
	} else {
		_ = spilled(below) && window() && spilled(above)
	}
}

// clone returns an independent deep copy.
func (b *bucketCounts) clone() bucketCounts {
	return bucketCounts{lo: b.lo, counts: slices.Clone(b.counts), spill: maps.Clone(b.spill)}
}
