package binx

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
)

var errTest = errors.New("test format")

func TestReaderRoundTrip(t *testing.T) {
	when := time.Date(2005, 3, 1, 12, 30, 0, 987654321, time.UTC)
	before := time.Date(1960, 1, 1, 0, 0, 0, 1, time.UTC)
	buf := []byte{0xAB}
	buf = binary.LittleEndian.AppendUint16(buf, 0xBEEF)
	buf = binary.LittleEndian.AppendUint32(buf, 0xDEADBEEF)
	buf = binary.LittleEndian.AppendUint64(buf, math.MaxUint64-1)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(-2.5))
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -300)
	buf = AppendString(buf, "hpc")
	buf = AppendString(buf, "")
	buf = AppendTime(buf, when)
	buf = AppendTime(buf, before)
	buf = append(buf, 1, 2, 3)

	r := NewReader(buf, errTest)
	if v := r.Byte(); v != 0xAB {
		t.Errorf("Byte = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != math.MaxUint64-1 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.F64(); v != -2.5 {
		t.Errorf("F64 = %g", v)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -300 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Str(); v != "hpc" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if v := r.Time(); v != when {
		t.Errorf("Time = %v, want %v", v, when)
	}
	if v := r.Time(); v != before {
		t.Errorf("pre-epoch Time = %v, want %v", v, before)
	}
	if off := r.Offset(); off != len(buf)-3 {
		t.Errorf("Offset = %d, want %d", off, len(buf)-3)
	}
	if v := r.Bytes(3); string(v) != "\x01\x02\x03" {
		t.Errorf("Bytes = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// The first failure sticks: later reads return zero values without
// moving, and Err and Done keep reporting the first failure.
func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5}, errTest)
	if v := r.U32(); v != 0x04030201 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U16(); v != 0 {
		t.Fatalf("truncated U16 = %d, want 0", v)
	}
	first := r.Err()
	if !errors.Is(first, errTest) {
		t.Fatalf("Err = %v, want errTest", first)
	}
	if v := r.Byte(); v != 0 || r.Offset() != 4 {
		t.Fatalf("Byte after failure = %d at offset %d, want 0 at 4", v, r.Offset())
	}
	if r.Err() != first || r.Done() != first {
		t.Fatalf("Err/Done changed after the first failure: %v, %v", r.Err(), r.Done())
	}
}

func TestReaderRejects(t *testing.T) {
	for name, c := range map[string]struct {
		buf  []byte
		read func(r *Reader)
	}{
		"trailing bytes":       {[]byte{7, 8}, func(r *Reader) { r.Byte(); r.Done() }},
		"truncated uvarint":    {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong uvarint":     {[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, func(r *Reader) { r.Uvarint() }},
		"truncated varint":     {[]byte{0xff}, func(r *Reader) { r.Varint() }},
		"padded uvarint":       {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"padded varint":        {[]byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Varint() }},
		"negative Bytes":       {nil, func(r *Reader) { r.Bytes(-1) }},
		"string past the end":  {[]byte{5, 'a'}, func(r *Reader) { r.Str() }},
		"count past the end":   {[]byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"huge count":           {binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Count(1) }},
		"bound past the end":   {[]byte{0, 0, 0}, func(r *Reader) { r.Bound(2, 2) }},
		"truncated time":       {AppendTime(nil, time.Unix(0, 5))[:1], func(r *Reader) { r.Time() }},
		"time nanoseconds 1e9": {binary.AppendUvarint([]byte{0}, 1e9), func(r *Reader) { r.Time() }},
		"empty":                {nil, func(r *Reader) { r.U64() }},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewReader(c.buf, errTest)
			c.read(r)
			if err := r.Err(); !errors.Is(err, errTest) {
				t.Fatalf("Err = %v, want errTest", err)
			}
		})
	}
}

// Count accepts exactly the counts whose items fit in the bytes left.
func TestCountBound(t *testing.T) {
	buf := append(binary.AppendUvarint(nil, 3), make([]byte, 6)...)
	if n := NewReader(buf, errTest).Count(2); n != 3 {
		t.Fatalf("Count(2) over 6 bytes = %d, want 3", n)
	}
	r := NewReader(buf, errTest)
	if n := r.Count(3); n != 0 || r.Err() == nil {
		t.Fatalf("Count(3) over 6 bytes = %d, err %v; want a failure", n, r.Err())
	}
}
