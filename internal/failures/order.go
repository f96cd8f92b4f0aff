package failures

import (
	"math"
	"math/bits"
	"time"
)

// SortedByStart returns the records of parts, taken in the order of
// their concatenation, stably sorted by start time (the wall-clock
// instant; monotonic clock readings are ignored), in a new slice of
// exactly their count. Equal starts keep concatenation order, so the
// result is element for element what sort.SliceStable makes of the
// concatenation. It is the one start-order kernel: NewDataset, Merge
// and, through SortedByStartFunc, the trace generator's blocks all
// order records through it.
//
// Records are never compared or moved while sorting. Each gets a
// pointer-free uint64 key: its start's offset from the earliest start,
// counted in the coarsest power-of-ten unit that holds every start
// exactly (whole seconds unless some start has sub-second digits),
// above its position (part index, then index within the part). An LSD
// radix sort orders the keys on the offset bits alone; each pass is a
// stable counting sort, so equal offsets stay in position order. One
// gather then moves every record once, into the result. When offset and
// position do not fit one word together, as with nanosecond starts
// spread over centuries, the offset is sorted a word-sized field at a
// time, least significant first. Input already in order is copied
// without sorting.
func SortedByStart(parts [][]Record) []Record {
	return SortedByStartFunc(parts, recordStart)
}

func recordStart(r *Record) time.Time { return r.Start }

// SortedByStartFunc is SortedByStart for elements of any type: start
// returns an element's start instant. The trace generator orders its
// compact, pointer-free system blocks through it.
func SortedByStartFunc[T any](parts [][]T, start func(*T) time.Time) []T {
	n, maxLen := 0, 0
	for _, p := range parts {
		n += len(p)
		maxLen = max(maxLen, len(p))
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	offBits := bits.Len(uint(maxLen - 1))
	posBits := offBits + bits.Len(uint(len(parts)-1))
	if posBits >= 64 {
		panic("failures: SortedByStart: too many parts to key")
	}

	// One pass over the starts: the seconds go into the keys, and the
	// pass finds their extremes, the unit and whether they are in order.
	keys := make([]uint64, n)
	minSec, maxSec := int64(math.MaxInt64), int64(math.MinInt64)
	prevSec, prevNsec := int64(math.MinInt64), 0
	unit := 1_000_000_000 // largest power of ten dividing every start's nanoseconds
	sorted := true
	i := 0
	for _, p := range parts {
		for j := range p {
			t := start(&p[j])
			sec, nsec := t.Unix(), t.Nanosecond()
			keys[i] = uint64(sec)
			i++
			minSec, maxSec = min(minSec, sec), max(maxSec, sec)
			for nsec%unit != 0 {
				unit /= 10
			}
			if sec < prevSec || sec == prevSec && nsec < prevNsec {
				sorted = false
			}
			prevSec, prevNsec = sec, nsec
		}
	}
	if sorted {
		i = 0
		for _, p := range parts {
			i += copy(out[i:], p)
		}
		return out
	}

	// width is the bit length of the largest possible offset, up to
	// 2^64 seconds times 1e9 units each.
	perSec := uint64(1_000_000_000 / unit)
	hi, lo := bits.Mul64(uint64(maxSec)-uint64(minSec), perSec)
	lo, carry := bits.Add64(lo, perSec-1, 0)
	hi += carry
	width := bits.Len64(lo)
	if hi != 0 {
		width = 64 + bits.Len64(hi)
	}
	posMask := uint64(1)<<posBits - 1
	offMask := uint64(1)<<offBits - 1
	if width+posBits <= 64 {
		i = 0
		for pi, p := range parts {
			pos := uint64(pi) << offBits
			for j := range p {
				off := keys[i] - uint64(minSec)
				if perSec > 1 {
					off = off*perSec + uint64(start(&p[j]).Nanosecond()/unit)
				}
				keys[i] = off<<posBits | pos
				pos++
				i++
			}
		}
		keys = radixSort(keys, posBits, width)
	} else {
		i = 0
		for pi, p := range parts {
			pos := uint64(pi) << offBits
			for range p {
				keys[i] = pos
				pos++
				i++
			}
		}
		field := 64 - posBits
		for at := 0; at < width; at += field {
			w := min(field, width-at)
			for k, key := range keys {
				pos := key & posMask
				t := start(&parts[pos>>offBits][pos&offMask])
				hi, lo := bits.Mul64(uint64(t.Unix())-uint64(minSec), perSec)
				lo, carry := bits.Add64(lo, uint64(t.Nanosecond()/unit), 0)
				keys[k] = bitField(hi+carry, lo, at, w)<<posBits | pos
			}
			keys = radixSort(keys, posBits, w)
		}
	}
	for k, key := range keys {
		pos := key & posMask
		out[k] = parts[pos>>offBits][pos&offMask]
	}
	return out
}

// bitField returns bits [at, at+w) of the 128-bit number hi·2^64 + lo.
func bitField(hi, lo uint64, at, w int) uint64 {
	var v uint64
	if at < 64 {
		v = lo>>at | hi<<(64-at)
	} else {
		v = hi >> (at - 64)
	}
	return v & (uint64(1)<<w - 1)
}

// radixSort stably sorts keys on their bits [shift, shift+width), least
// significant digit first, and returns them sorted, in keys' storage or
// in a buffer of the same length. Digits are at most 11 bits wide, so a
// pass's counters stay in L1 cache, and narrower for short inputs, whose
// counters would otherwise outnumber their keys; the width is spread
// evenly over the passes. One read of the keys fills every pass's
// counters, and a pass whose digit all keys share is skipped.
func radixSort(keys []uint64, shift, width int) []uint64 {
	d := min(11, max(4, bits.Len(uint(len(keys)))))
	passes := (width + d - 1) / d
	d = (width + passes - 1) / passes
	mask := uint64(1)<<d - 1
	counts := make([]int, passes<<d)
	for _, k := range keys {
		k >>= shift
		for p := 0; p < passes; p++ {
			counts[p<<d+int(k&mask)]++
			k >>= d
		}
	}
	src, dst := keys, make([]uint64, len(keys))
	for p := 0; p < passes; p++ {
		s := shift + p*d
		c := counts[p<<d : (p+1)<<d]
		if c[src[0]>>s&mask] == len(src) {
			continue
		}
		sum := 0
		for b, v := range c {
			c[b] = sum
			sum += v
		}
		for _, k := range src {
			b := k >> s & mask
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
