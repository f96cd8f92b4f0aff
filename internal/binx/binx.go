// Package binx is the one bounds-checked byte reader behind every binary
// format the repository reads back from its own disk: the tracefmt trace,
// the streamstats snapshots, the engine's HFINC01 incremental snapshot,
// and the serve WAL and HFSRV01 server snapshot. Those bytes are treated
// as hostile, so every read is checked against the bytes left.
//
// A Reader has a sticky error: the first bad read poisons it, later
// reads return zero values, and the decoder checks Err (or Done) once per
// structure instead of after every field. A decoded value must not be
// trusted, compared against a caller's options or used to size anything
// until Err has returned nil.
//
// Counts that size an allocation or bound a loop are read with Count (or
// checked with Bound), which fails unless count × the smallest encoding
// of one item fits in the bytes left, so a hostile count can neither
// allocate more than the input's size nor run a loop past its input.
//
// Fixed-width fields are little-endian. Varints are encoding/binary's,
// and must be minimally encoded: a varint padded with trailing zero
// groups is rejected, so a structure that decodes re-encodes to its
// input bytes.
// A string is a uvarint length and its bytes (AppendString), a time is
// varint Unix seconds and uvarint nanoseconds, read back as UTC
// (AppendTime).
package binx

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Reader cursors over a byte slice with bounds checking. Construct with
// NewReader.
type Reader struct {
	buf      []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over p whose errors wrap sentinel, so a
// decoder's callers match its failures with errors.Is.
func NewReader(p []byte, sentinel error) *Reader {
	return &Reader{buf: p, sentinel: sentinel}
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Bytes returns the next n bytes, aliasing the input, or nil after
// poisoning the reader when fewer are left.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("truncated at offset %d: need %d bytes, %d left", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Err returns the first read failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns Err, or an error if bytes remain unread: a structure that
// decodes cleanly must span its input exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Offset returns how many bytes have been read.
func (r *Reader) Offset() int { return r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 stored as its little-endian IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || !minimal(r.buf[r.off:], n) {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || !minimal(r.buf[r.off:], n) {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// minimal reports whether the n-byte varint at the start of b is the
// shortest encoding of its value: only a lone zero byte may end in zero.
func minimal(b []byte, n int) bool { return n == 1 || b[n-1] != 0 }

// Bound checks a count n of items whose smallest encoding is minSize
// bytes (at least 1) against the bytes left, and returns it as an int,
// or 0 after poisoning the reader when the items cannot fit.
func (r *Reader) Bound(n uint64, minSize int) int {
	if r.err != nil {
		return 0
	}
	if left := uint64(len(r.buf) - r.off); n > left/uint64(minSize) {
		r.fail("count %d of %d-byte items exceeds the %d bytes left at offset %d", n, minSize, left, r.off)
		return 0
	}
	return int(n)
}

// Count reads a uvarint count of items whose smallest encoding is
// minSize bytes, checked by Bound.
func (r *Reader) Count(minSize int) int { return r.Bound(r.Uvarint(), minSize) }

// Str reads a string written by AppendString.
func (r *Reader) Str() string { return string(r.Bytes(r.Count(1))) }

// Time reads a time written by AppendTime, in UTC. A nanosecond field
// of a second or more is rejected: AppendTime never writes one.
func (r *Reader) Time() time.Time {
	sec, nsec := r.Varint(), r.Uvarint()
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= uint64(time.Second) {
		r.fail("time nanoseconds %d out of range at offset %d", nsec, r.off)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendTime appends t as varint Unix seconds and uvarint nanoseconds.
func AppendTime(buf []byte, t time.Time) []byte {
	buf = binary.AppendVarint(buf, t.Unix())
	return binary.AppendUvarint(buf, uint64(t.Nanosecond()))
}
