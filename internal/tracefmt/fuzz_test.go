package tracefmt

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

// recordsFromBytes derives a record stream deterministically from fuzz
// input, 16 bytes per record, covering varied labels, systems, nodes and
// non-monotonic sub-second timestamps. All derived records are within the
// format's representable ranges, so encoding must always succeed.
func recordsFromBytes(data []byte) []failures.Record {
	const stride = 16
	n := len(data) / stride
	if n > 512 {
		n = 512
	}
	base := time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]failures.Record, n)
	for i := range recs {
		b := data[i*stride : (i+1)*stride]
		start := base.
			Add(time.Duration(int64(b[0])|int64(b[1])<<8|int64(b[2])<<16) * time.Second).
			Add(time.Duration(b[3]) * time.Nanosecond)
		recs[i] = failures.Record{
			System:   int(b[4]),
			Node:     int(b[5]) | int(b[6])<<8,
			HW:       failures.HWType(fmt.Sprintf("hw-%d", b[7]%31)),
			Workload: failures.Workload(b[8]),
			Cause:    failures.RootCause(b[9]),
			Detail:   fmt.Sprintf("detail-%d", int(b[10])|int(b[11])<<8),
			Start:    start,
			End:      start.Add(time.Duration(1+int(b[12])) * time.Minute),
		}
	}
	return recs
}

// FuzzTraceRoundTrip drives the format from both ends. The fuzz input is
// first decoded into a record stream that must survive an encode/decode
// round trip field-exactly at a fuzzed block size; the same raw bytes are
// then scanned directly as a (usually corrupt) trace, which must fail
// with an error — never a panic, hang, or fabricated records.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("HPCTRC"), uint8(1))
	f.Add(bytes.Repeat([]byte{0x5a}, 96), uint8(7))
	f.Add(encode(f, synthRecords(64), WriterOptions{BlockRecords: 8}), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, blockN uint8) {
		recs := recordsFromBytes(data)
		raw := encode(t, recs, WriterOptions{BlockRecords: int(blockN) % 33})
		s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
		if err != nil {
			t.Fatalf("NewScanner on fresh encoding: %v", err)
		}
		got := scanAll(t, s)
		if len(got) != len(recs) {
			t.Fatalf("round trip yielded %d records, want %d", len(got), len(recs))
		}
		for i := range recs {
			if !got[i].Start.Equal(recs[i].Start) || !got[i].End.Equal(recs[i].End) {
				t.Fatalf("record %d times: got [%v, %v], want [%v, %v]",
					i, got[i].Start, got[i].End, recs[i].Start, recs[i].End)
			}
			got[i].Start, got[i].End = recs[i].Start, recs[i].End
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
			}
		}

		// The parallel scanner must reproduce the sequential scan of the
		// fresh encoding exactly, at a worker count above one.
		pf, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("NewFile on fresh encoding: %v", err)
		}
		if pgot := scanAll(t, pf.ScanParallel(ScanOptions{}, 3)); !reflect.DeepEqual(pgot, got) {
			t.Fatalf("ScanParallel yielded %d records, sequential %d (or field mismatch)", len(pgot), len(got))
		}

		// The raw fuzz bytes as a trace: a scanner that accepts them must
		// terminate and surface any corruption through Err(). Whenever the
		// stream scan accepts the bytes, its footer check has proved the
		// index and dictionaries match the blocks, so the random-access
		// reader must open them and read back identical records.
		if s2, err := NewScanner(bytes.NewReader(data), ScanOptions{}); err == nil {
			var streamed []failures.Record
			for s2.Scan() {
				streamed = append(streamed, s2.Record())
			}
			if s2.Err() == nil {
				f2, err := NewFile(bytes.NewReader(data), int64(len(data)))
				if err != nil {
					t.Fatalf("NewScanner accepted bytes that NewFile rejects: %v", err)
				}
				for _, workers := range []int{1, 3} {
					ps := f2.ScanParallel(ScanOptions{}, workers)
					var pgot []failures.Record
					for ps.Scan() {
						pgot = append(pgot, ps.Record())
					}
					if err := ps.Err(); err != nil || !reflect.DeepEqual(pgot, streamed) {
						t.Fatalf("ScanParallel(%d) yielded %d records (err %v), stream %d",
							workers, len(pgot), err, len(streamed))
					}
				}
			}
		}

		// Hostile bytes through the parallel path: the footer index is
		// validated before any worker dereferences it, so the scanner
		// must terminate with a clean end or an error — never panic or
		// hang, and never yield a record count the index does not claim.
		if hf, err := NewFile(bytes.NewReader(data), int64(len(data))); err == nil {
			hs := hf.ScanParallel(ScanOptions{}, 3)
			hostile := 0
			for hs.Scan() {
				hostile++
			}
			if hs.Err() == nil && hostile != hf.Records() {
				t.Fatalf("hostile ScanParallel yielded %d records, index says %d", hostile, hf.Records())
			}
			hs.Close()
		}
	})
}
