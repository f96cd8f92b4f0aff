package tracefmt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

// synthRecords builds n records with varied labels and non-monotonic
// times so dictionary growth and min/max indexing are both exercised.
func synthRecords(n int) []failures.Record {
	base := time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]failures.Record, n)
	for i := range recs {
		// Jump around in time so blocks get distinct, unsorted windows.
		start := base.Add(time.Duration((i*7919)%(n+1)) * time.Hour).Add(time.Duration(i%997) * time.Nanosecond)
		recs[i] = failures.Record{
			System:   i % 23,
			Node:     i % 4096,
			HW:       failures.HWType(fmt.Sprintf("hw-%d", i%13)),
			Workload: failures.Workload(1 + i%3),
			Cause:    failures.RootCause(1 + i%6),
			Detail:   fmt.Sprintf("detail-%d", i%257),
			Start:    start,
			End:      start.Add(time.Duration(1+i%300) * time.Minute),
		}
	}
	return recs
}

func encode(t testing.TB, recs []failures.Record, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write record %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.Count(); got != len(recs) {
		t.Fatalf("Count() = %d, want %d", got, len(recs))
	}
	return buf.Bytes()
}

// scanAll drains s through the Scan/Record interface, failing the test
// on any scan error, and closes it.
func scanAll(t testing.TB, s *Scanner) []failures.Record {
	t.Helper()
	defer s.Close()
	var out []failures.Record
	for s.Scan() {
		out = append(out, s.Record())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, blockN := range []int{0, 1, 2, 7, 1000} {
		t.Run(fmt.Sprintf("block=%d", blockN), func(t *testing.T) {
			recs := synthRecords(1203)
			raw := encode(t, recs, WriterOptions{BlockRecords: blockN})

			s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
			if err != nil {
				t.Fatalf("NewScanner: %v", err)
			}
			got := scanAll(t, s)
			if len(got) != len(recs) {
				t.Fatalf("stream scan yielded %d records, want %d", len(got), len(recs))
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

			f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatalf("NewFile: %v", err)
			}
			if f.Records() != len(recs) {
				t.Fatalf("File.Records() = %d, want %d", f.Records(), len(recs))
			}
			got2 := scanAll(t, f.Scan(ScanOptions{}))
			if len(got2) != len(recs) {
				t.Fatalf("file scan yielded %d records, want %d", len(got2), len(recs))
			}
			for i := range recs {
				if got2[i].Detail != recs[i].Detail || !got2[i].Start.Equal(recs[i].Start) {
					t.Fatalf("file scan record %d mismatch", i)
				}
			}
		})
	}
}

func TestEmptyTrace(t *testing.T) {
	raw := encode(t, nil, WriterOptions{})
	s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if got := scanAll(t, s); len(got) != 0 {
		t.Fatalf("empty trace yielded %d records", len(got))
	}
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	if f.Records() != 0 || len(f.Blocks()) != 0 {
		t.Fatalf("empty trace: Records=%d Blocks=%d", f.Records(), len(f.Blocks()))
	}
	if got := scanAll(t, f.Scan(ScanOptions{})); len(got) != 0 {
		t.Fatalf("empty file scan yielded %d records", len(got))
	}
}

func TestBlockIndex(t *testing.T) {
	recs := synthRecords(500)
	raw := encode(t, recs, WriterOptions{BlockRecords: 64})
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	blocks := f.Blocks()
	if want := (500 + 63) / 64; len(blocks) != want {
		t.Fatalf("got %d blocks, want %d", len(blocks), want)
	}
	total := 0
	for bi, b := range blocks {
		lo, hi := bi*64, bi*64+b.Records
		min, max := recs[lo].Start.UnixNano(), recs[lo].Start.UnixNano()
		for _, r := range recs[lo:hi] {
			if n := r.Start.UnixNano(); n < min {
				min = n
			} else if n > max {
				max = n
			}
		}
		if b.MinStart != min || b.MaxStart != max {
			t.Fatalf("block %d index [%d, %d], want [%d, %d]", bi, b.MinStart, b.MaxStart, min, max)
		}
		total += b.Records
	}
	if total != len(recs) {
		t.Fatalf("blocks sum to %d records, want %d", total, len(recs))
	}
}

// countingReaderAt counts ReadAt calls so tests can prove block skipping
// touches the underlying file only for blocks inside the window.
type countingReaderAt struct {
	r     *bytes.Reader
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

func TestTimeRangeScan(t *testing.T) {
	// Mostly time-ordered with local jitter, like a real merged trace:
	// blocks get tight, distinct time windows, so some fall wholly
	// outside the scan range and must be skipped.
	recs := synthRecords(2000)
	base := time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i].Start = base.Add(time.Duration(i)*time.Hour - time.Duration(i%7)*time.Minute)
		recs[i].End = recs[i].Start.Add(time.Duration(1+i%90) * time.Minute)
	}
	raw := encode(t, recs, WriterOptions{BlockRecords: 50})

	from := time.Date(1996, 8, 20, 0, 0, 0, 0, time.UTC)
	to := time.Date(1996, 9, 10, 0, 0, 0, 0, time.UTC)
	var want []failures.Record
	for _, r := range recs {
		if !r.Start.Before(from) && r.Start.Before(to) {
			want = append(want, r)
		}
	}
	if len(want) == 0 || len(want) == len(recs) {
		t.Fatalf("degenerate window: %d of %d records", len(want), len(recs))
	}

	check := func(name string, got []failures.Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records in window, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Detail != want[i].Detail || !got[i].Start.Equal(want[i].Start) {
				t.Fatalf("%s: record %d mismatch: got %v, want %v", name, i, got[i].Start, want[i].Start)
			}
		}
	}

	s, err := NewScanner(bytes.NewReader(raw), ScanOptions{From: from, To: to})
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	check("stream", scanAll(t, s))

	cra := &countingReaderAt{r: bytes.NewReader(raw)}
	f, err := NewFile(cra, int64(len(raw)))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	overlapping := 0
	fromN, toInc := from.UnixNano(), to.UnixNano()-1
	for _, b := range f.Blocks() {
		if b.overlaps(fromN, toInc) {
			overlapping++
		}
	}
	if overlapping == len(f.Blocks()) {
		t.Fatalf("degenerate: every block overlaps the window")
	}
	openReads := cra.reads
	check("file", scanAll(t, f.Scan(ScanOptions{From: from, To: to})))
	scanReads := cra.reads - openReads
	// Two ReadAt calls per block frame (header + body); skipped blocks
	// must cost zero reads.
	if maxReads := 2 * overlapping; scanReads > maxReads {
		t.Fatalf("range scan issued %d reads for %d overlapping blocks (max %d): skipping is broken",
			scanReads, overlapping, maxReads)
	}

	// Half-open semantics: From alone, To alone.
	s2, _ := NewScanner(bytes.NewReader(raw), ScanOptions{From: from})
	nFrom := len(scanAll(t, s2))
	s3, _ := NewScanner(bytes.NewReader(raw), ScanOptions{To: from})
	nTo := len(scanAll(t, s3))
	if nFrom+nTo != len(recs) {
		t.Fatalf("[From,∞) has %d + (-∞,From) has %d, want total %d", nFrom, nTo, len(recs))
	}

	// A record starting exactly at From is included; exactly at To is not.
	exact := recs[0]
	exact.Start = from
	exact.End = from.Add(time.Hour)
	raw2 := encode(t, []failures.Record{exact}, WriterOptions{})
	s4, _ := NewScanner(bytes.NewReader(raw2), ScanOptions{From: from, To: from.Add(1)})
	if got := scanAll(t, s4); len(got) != 1 {
		t.Fatalf("record starting exactly at From dropped")
	}
	s5, _ := NewScanner(bytes.NewReader(raw2), ScanOptions{To: from})
	if got := scanAll(t, s5); len(got) != 0 {
		t.Fatalf("record starting exactly at To included; window must be half-open")
	}
}

func TestCorruptionDetection(t *testing.T) {
	recs := synthRecords(300)
	raw := encode(t, recs, WriterOptions{BlockRecords: 100})

	scanErr := func(b []byte) error {
		s, err := NewScanner(bytes.NewReader(b), ScanOptions{})
		if err != nil {
			return err
		}
		for s.Scan() {
		}
		return s.Err()
	}

	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0x40
		err := scanErr(bad)
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("corrupted byte not detected: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := scanErr(raw[:len(raw)-trailerSize-3]); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("truncation not detected: %v", err)
		}
		if _, err := NewFile(bytes.NewReader(raw[:len(raw)-2]), int64(len(raw)-2)); err == nil {
			t.Fatalf("NewFile accepted a truncated trailer")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] = 'X'
		if err := scanErr(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
		if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("NewFile: want ErrBadMagic, got %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		le.PutUint16(bad[len(magic):], Version+1)
		if err := scanErr(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
		if _, err := NewFile(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrVersion) {
			t.Fatalf("NewFile: want ErrVersion, got %v", err)
		}
	})
	t.Run("data after trailer", func(t *testing.T) {
		bad := append(append([]byte(nil), raw...), 0)
		if err := scanErr(bad); !errors.Is(err, ErrFormat) {
			t.Fatalf("want ErrFormat, got %v", err)
		}
	})
}

func TestWriterRejectsUnrepresentable(t *testing.T) {
	r0 := synthRecords(1)[0]
	cases := []struct {
		name string
		mut  func(*failures.Record)
	}{
		{"start beyond epoch range", func(r *failures.Record) { r.Start = time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"end beyond epoch range", func(r *failures.Record) { r.End = time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"negative system", func(r *failures.Record) { r.System = -1 }},
		{"huge node", func(r *failures.Record) { r.Node = 1 << 40 }},
		{"workload out of byte", func(r *failures.Record) { r.Workload = 300 }},
		{"cause out of byte", func(r *failures.Record) { r.Cause = -2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			r := r0
			tc.mut(&r)
			if err := w.Write(r); err == nil {
				t.Fatalf("Write accepted unrepresentable record %+v", r)
			}
			if err := w.Close(); err == nil {
				t.Fatalf("Close succeeded on a poisoned writer")
			}
		})
	}
}

// TestWriterLabelCachesKeepOneIndexPerLabel: the Writer's label caches
// key on a label's address, so an equal label in a distinct backing
// array must still get the label's one dictionary index, and a cached
// label must never lend its index to a different label of the same
// length. A file whose labels are all fresh copies must be the same
// bytes as one whose labels share storage.
func TestWriterLabelCachesKeepOneIndexPerLabel(t *testing.T) {
	details := []string{"memory", "disk00", "disk01", "CPU", ""}
	hws := []failures.HWType{"E", "F", "G"}
	shared := synthRecords(3000)
	copied := make([]failures.Record, len(shared))
	for i := range shared {
		// Systems run in blocks of one hardware label, as in a
		// generated trace, and details cycle through equal lengths.
		shared[i].HW = hws[i/250%len(hws)]
		shared[i].Detail = details[i*7%len(details)]
		copied[i] = shared[i]
		copied[i].HW = failures.HWType(strings.Clone(string(shared[i].HW)))
		copied[i].Detail = strings.Clone(shared[i].Detail)
	}
	// Interleave the two so cached and uncached addresses alternate.
	mixed := make([]failures.Record, len(shared))
	for i := range mixed {
		mixed[i] = shared[i]
		if i%3 == 1 {
			mixed[i] = copied[i]
		}
	}
	opts := WriterOptions{BlockRecords: 256}
	want := encode(t, shared, opts)
	for name, recs := range map[string][]failures.Record{"copied": copied, "mixed": mixed} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(w.hwAll) != len(hws) || len(w.detAll) != len(details) {
			t.Fatalf("%s labels: dictionaries hold %d hardware and %d detail labels, want %d and %d",
				name, len(w.hwAll), len(w.detAll), len(hws), len(details))
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s labels: file differs from the shared-label file", name)
		}
		s, err := NewScanner(bytes.NewReader(buf.Bytes()), ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range scanAll(t, s) {
			if r.HW != shared[i].HW || r.Detail != shared[i].Detail {
				t.Fatalf("%s labels: record %d reads back %q/%q, want %q/%q",
					name, i, r.HW, r.Detail, shared[i].HW, shared[i].Detail)
			}
		}
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := w.Write(synthRecords(1)[0]); err == nil {
		t.Fatalf("Write after Close succeeded")
	}
}

func TestOpenFileRoundTrip(t *testing.T) {
	recs := synthRecords(100)
	raw := encode(t, recs, WriterOptions{BlockRecords: 32})
	path := t.TempDir() + "/trace.bin"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if got := scanAll(t, f.Scan(ScanOptions{})); len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	if len(f.hwDict) == 0 {
		t.Fatalf("HWTypes dictionary empty")
	}
}

// TestScanSteadyStateAllocs pins the zero-copy claim: once the payload
// buffer and dictionaries are warm, Scan allocates nothing per record.
func TestScanSteadyStateAllocs(t *testing.T) {
	recs := synthRecords(60000)
	raw := encode(t, recs, WriterOptions{BlockRecords: 4096})
	s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past the first blocks so the frame buffer has grown and
	// every dictionary entry has been seen.
	for i := 0; i < 10000; i++ {
		if !s.Scan() {
			t.Fatalf("trace exhausted during warmup at %d", i)
		}
	}
	var sink failures.Record
	avg := testing.AllocsPerRun(40, func() {
		for i := 0; i < 1000; i++ {
			if !s.Scan() {
				t.Fatalf("trace exhausted mid-measurement")
			}
			sink = s.Record()
		}
	})
	_ = sink
	if perRecord := avg / 1000; perRecord > 0.001 {
		t.Fatalf("steady-state Scan allocates %.4f allocs/record, want 0", perRecord)
	}
}

var errShortWrite = errors.New("synthetic write failure")

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errShortWrite
	}
	f.after--
	return len(p), nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	w, err := NewWriter(&failingWriter{after: 1}, WriterOptions{BlockRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := synthRecords(64)
	var sawErr error
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		sawErr = w.Close()
	}
	if !errors.Is(sawErr, errShortWrite) {
		t.Fatalf("write error not propagated: %v", sawErr)
	}
}

// Ensure io.Reader streaming works through a pipe-like reader that
// returns short reads (exercises io.ReadFull paths).
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestScannerShortReads(t *testing.T) {
	recs := synthRecords(50)
	raw := encode(t, recs, WriterOptions{BlockRecords: 8})
	s, err := NewScanner(oneByteReader{bytes.NewReader(raw)}, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, s); len(got) != len(recs) {
		t.Fatalf("got %d records through short reads, want %d", len(got), len(recs))
	}
}

// patchFooter returns a copy of raw whose footer payload has been edited
// by mut, with the footer frame's CRC recomputed so the edit passes the
// checksum and only the format's cross-checks can catch it.
func patchFooter(t *testing.T, raw []byte, mut func(p []byte)) []byte {
	t.Helper()
	bad := append([]byte(nil), raw...)
	footOff := int(le.Uint64(bad[len(bad)-trailerSize:]))
	hdr := bad[footOff : footOff+frameSize]
	if hdr[0] != frameFooter {
		t.Fatalf("trailer points at frame kind %d", hdr[0])
	}
	p := bad[footOff+frameSize : footOff+frameSize+int(le.Uint32(hdr[1:]))]
	mut(p)
	le.PutUint32(hdr[5:], crc32Checksum(p))
	return bad
}

// TestFileScanChecksIndexCounts is a regression test: File.Scan used to
// trust the footer index's per-block record counts without comparing
// them to the blocks, so an index whose counts were shuffled between
// blocks (keeping the total) read back without error. Every reader
// must now reject it.
func TestFileScanChecksIndexCounts(t *testing.T) {
	raw := encode(t, synthRecords(12), WriterOptions{BlockRecords: 4})
	bad := patchFooter(t, raw, func(p []byte) {
		nBlocks := int(le.Uint32(p[8:]))
		count := func(i int) []byte { return p[12+28*i+8:] }
		le.PutUint32(count(0), le.Uint32(count(0))-1)
		le.PutUint32(count(nBlocks-1), le.Uint32(count(nBlocks-1))+1)
	})
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("NewFile rejected a footer whose index still sums to the total: %v", err)
	}
	if got := f.Blocks(); len(got) != 3 || got[0].Records != 3 || got[2].Records != 5 {
		t.Fatalf("patched index = %+v, want counts 3, 4, 5", got)
	}
	// Draining to the end or the first error releases any workers.
	drain := func(s interface {
		Scan() bool
		Err() error
	}) error {
		for s.Scan() {
		}
		return s.Err()
	}
	if err := drain(f.Scan(ScanOptions{})); !errors.Is(err, ErrFormat) {
		t.Fatalf("File.Scan: got %v, want ErrFormat", err)
	}
	for _, workers := range []int{1, 4} {
		if err := drain(f.ScanParallel(ScanOptions{}, workers)); !errors.Is(err, ErrFormat) {
			t.Fatalf("File.ScanParallel(%d): got %v, want ErrFormat", workers, err)
		}
	}
	s, err := NewScanner(bytes.NewReader(bad), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(s); !errors.Is(err, ErrFormat) {
		t.Fatalf("NewScanner: got %v, want ErrFormat", err)
	}
}

// TestStreamChecksFooter is a regression test: the stream reader used
// to read the footer frame only to reach the trailer, so a footer
// dictionary edited from hw-0 to hx-0 (CRC recomputed) streamed back
// hw-0 while File read hx-0, both without error. The stream reader now
// compares the footer with what it streamed.
func TestStreamChecksFooter(t *testing.T) {
	raw := encode(t, synthRecords(40), WriterOptions{BlockRecords: 8})
	bad := patchFooter(t, raw, func(p []byte) {
		i := bytes.Index(p, []byte("hw-0"))
		if i < 0 {
			t.Fatal("footer has no hw-0 entry")
		}
		p[i+1] = 'x'
	})
	f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("NewFile rejected the edited footer: %v", err)
	}
	if hw := f.hwDict[0]; hw != "hx-0" {
		t.Fatalf("edited footer dictionary starts with %q, want hx-0", hw)
	}
	s, err := NewScanner(bytes.NewReader(bad), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s.Scan() {
	}
	if err := s.Err(); !errors.Is(err, ErrFormat) {
		t.Fatalf("NewScanner: got %v, want ErrFormat", err)
	}
}
