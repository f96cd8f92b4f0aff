package tracefmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hpcfail/internal/failures"
)

// TestParallelWriterByteIdentity is the contract the parallel encoder
// lives by: at every worker count and block size the output bytes are
// exactly the sequential writer's, so checksums, goldens and the
// seed-1 reference digest never depend on -workers.
func TestParallelWriterByteIdentity(t *testing.T) {
	recs := synthRecords(2400)
	workerCounts := []int{2, 4, 8, runtime.NumCPU()}
	for _, blockN := range []int{1, 7, 8192} {
		seq := encode(t, recs, WriterOptions{BlockRecords: blockN})
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("block=%d/workers=%d", blockN, workers), func(t *testing.T) {
				par := encode(t, recs, WriterOptions{BlockRecords: blockN, Workers: workers})
				if !bytes.Equal(seq, par) {
					t.Fatalf("parallel encode differs from sequential: %d vs %d bytes", len(par), len(seq))
				}
			})
		}
	}
}

// TestParallelWriterEmptyTrace: a pool writer that never sees a record
// must still emit the exact header+footer+trailer file.
func TestParallelWriterEmptyTrace(t *testing.T) {
	seq := encode(t, nil, WriterOptions{})
	par := encode(t, nil, WriterOptions{Workers: 4})
	if !bytes.Equal(seq, par) {
		t.Fatalf("empty parallel trace differs from sequential")
	}
	f, err := NewFile(bytes.NewReader(par), int64(len(par)))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	if f.Records() != 0 || len(f.Blocks()) != 0 {
		t.Fatalf("empty parallel trace: Records=%d Blocks=%d", f.Records(), len(f.Blocks()))
	}
}

// TestParallelWriterPoison: a validation error must surface from the
// offending Write, stick across further Writes and both Closes, and
// release the pool goroutines instead of deadlocking on them.
func TestParallelWriterPoison(t *testing.T) {
	for _, workers := range []int{0, 3, 4} {
		before := runtime.NumGoroutine()
		var buf bytes.Buffer
		w, err := NewWriter(&buf, WriterOptions{BlockRecords: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		good := synthRecords(5)
		for _, r := range good {
			if err := w.Write(r); err != nil {
				t.Fatalf("workers %d: good record rejected: %v", workers, err)
			}
		}
		bad := good[0]
		bad.Workload = 300
		if err := w.Write(bad); err == nil {
			t.Fatalf("workers %d: Write accepted an unrepresentable record", workers)
		}
		if err := w.Write(good[0]); err == nil {
			t.Fatalf("workers %d: Write succeeded on a poisoned writer", workers)
		}
		if err := w.Close(); err == nil {
			t.Fatalf("workers %d: Close succeeded on a poisoned writer", workers)
		}
		if err := w.Close(); err == nil {
			t.Fatalf("workers %d: second Close forgot the poison", workers)
		}
		waitGoroutines(t, before, fmt.Sprintf("workers %d: poisoned writer closed", workers))
	}
}

// TestParallelWriterPropagatesIOErrors: an underlying write failure
// surfaces on a later Write or at Close (frames are written once the
// pool is full, or at Close), and Close never hangs on the pool and
// releases its goroutines.
func TestParallelWriterPropagatesIOErrors(t *testing.T) {
	for _, workers := range []int{0, 3} {
		before := runtime.NumGoroutine()
		w, err := NewWriter(&failingWriter{after: 1}, WriterOptions{BlockRecords: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sawErr error
		for _, r := range synthRecords(256) {
			if err := w.Write(r); err != nil {
				sawErr = err
				break
			}
		}
		if sawErr == nil {
			sawErr = w.Close()
		} else if err := w.Close(); err == nil {
			t.Fatalf("workers %d: Close succeeded after a write error", workers)
		}
		if !errors.Is(sawErr, errShortWrite) {
			t.Fatalf("workers %d: write error not propagated: %v", workers, sawErr)
		}
		waitGoroutines(t, before, fmt.Sprintf("workers %d: failed writer closed", workers))
	}
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before: a pool worker may still be exiting when the call that
// stopped its pool returns, so it polls for a while first.
func waitGoroutines(t *testing.T, before int, after string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after %s: pool goroutines leaked", before, n, after)
	}
}

func TestParallelWriterWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, WriterOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(synthRecords(1)[0]); err != nil {
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

// TestParallelScanIdentity is the decode-side identity matrix: every
// way to get a Scanner — NewScanner over the stream, File.Scan over the
// index, File.ScanParallel at several worker counts — must yield
// exactly the written records that fall in the window, every field, in
// write order, across block sizes and time windows.
func TestParallelScanIdentity(t *testing.T) {
	recs := synthRecords(3000)
	from := time.Date(1996, 8, 10, 0, 0, 0, 0, time.UTC)
	to := time.Date(1996, 10, 1, 0, 0, 0, 0, time.UTC)
	workerCounts := []int{1, 4, 8, runtime.NumCPU()}
	for _, blockN := range []int{1, 7, 8192} {
		raw := encode(t, recs, WriterOptions{BlockRecords: blockN})
		for wi, opts := range []ScanOptions{{}, {From: from, To: to}} {
			var want []failures.Record
			for _, r := range recs {
				if (opts.From.IsZero() || !r.Start.Before(opts.From)) && (opts.To.IsZero() || r.Start.Before(opts.To)) {
					want = append(want, r)
				}
			}
			if wi == 1 && (len(want) == 0 || len(want) == len(recs)) {
				t.Fatalf("degenerate window: %d of %d records", len(want), len(recs))
			}
			check := func(t *testing.T, s *Scanner) {
				t.Helper()
				got := scanAll(t, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d records, want %d (or field mismatch)", len(got), len(want))
				}
			}
			f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("block=%d/window=%d/workers=%d", blockN, wi, workers), func(t *testing.T) {
					check(t, f.ScanParallel(opts, workers))
				})
			}
			t.Run(fmt.Sprintf("block=%d/window=%d/file", blockN, wi), func(t *testing.T) {
				check(t, f.Scan(opts))
			})
			t.Run(fmt.Sprintf("block=%d/window=%d/stream", blockN, wi), func(t *testing.T) {
				s, err := NewScanner(bytes.NewReader(raw), opts)
				if err != nil {
					t.Fatal(err)
				}
				check(t, s)
			})
		}
	}
}

// atomicReaderAt counts ReadAt calls race-free, since parallel decode
// workers read concurrently.
type atomicReaderAt struct {
	r     *bytes.Reader
	reads atomic.Int64
}

func (c *atomicReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// TestParallelScanWindowSkipsReads: the dispatcher must skip
// out-of-window blocks before any worker touches the file, so a
// windowed parallel scan costs reads only for overlapping blocks.
func TestParallelScanWindowSkipsReads(t *testing.T) {
	recs := synthRecords(2000)
	base := time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i].Start = base.Add(time.Duration(i)*time.Hour - time.Duration(i%7)*time.Minute)
		recs[i].End = recs[i].Start.Add(time.Duration(1+i%90) * time.Minute)
	}
	raw := encode(t, recs, WriterOptions{BlockRecords: 50})
	from := time.Date(1996, 8, 20, 0, 0, 0, 0, time.UTC)
	to := time.Date(1996, 9, 10, 0, 0, 0, 0, time.UTC)

	cra := &atomicReaderAt{r: bytes.NewReader(raw)}
	f, err := NewFile(cra, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	fromN, toInc := from.UnixNano(), to.UnixNano()-1
	overlapping := 0
	for _, b := range f.Blocks() {
		if b.overlaps(fromN, toInc) {
			overlapping++
		}
	}
	if overlapping == 0 || overlapping == len(f.Blocks()) {
		t.Fatalf("degenerate window: %d of %d blocks overlap", overlapping, len(f.Blocks()))
	}
	openReads := cra.reads.Load()
	got := scanAll(t, f.ScanParallel(ScanOptions{From: from, To: to}, 4))
	scanReads := cra.reads.Load() - openReads
	if maxReads := int64(2 * overlapping); scanReads > maxReads {
		t.Fatalf("parallel range scan issued %d reads for %d overlapping blocks (max %d): skipping is broken",
			scanReads, overlapping, maxReads)
	}
	var want int
	for _, r := range recs {
		if !r.Start.Before(from) && r.Start.Before(to) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("windowed parallel scan yielded %d records, want %d", len(got), want)
	}
}

// TestParallelScanCorruption flips a byte in every frame of the trace,
// one corrupted copy at a time, and requires the parallel and stream
// scanners to surface an error — never panic, never deadlock — and to
// shut down cleanly with workers drained.
func TestParallelScanCorruption(t *testing.T) {
	recs := synthRecords(300)
	raw := encode(t, recs, WriterOptions{BlockRecords: 25})
	clean, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	blocks := clean.Blocks()
	if len(blocks) < 4 {
		t.Fatalf("want several blocks, got %d", len(blocks))
	}
	// One corruption site per block frame (mid-payload) plus one in the
	// frame header's kind byte, for every block in the file.
	type site struct {
		name string
		off  int64
	}
	var sites []site
	for bi, b := range blocks {
		sites = append(sites,
			site{fmt.Sprintf("block%d-kind", bi), b.Offset},
			site{fmt.Sprintf("block%d-payload", bi), b.Offset + frameSize + 10},
		)
	}
	for _, sc := range sites {
		t.Run(sc.name, func(t *testing.T) {
			bad := append([]byte(nil), raw...)
			bad[sc.off] ^= 0x5b

			f, err := NewFile(bytes.NewReader(bad), int64(len(bad)))
			if err == nil {
				ps := f.ScanParallel(ScanOptions{}, 4)
				for ps.Scan() {
				}
				if ps.Err() == nil {
					t.Fatalf("ScanParallel missed the corruption at offset %d", sc.off)
				}
				if err := ps.Close(); err != nil {
					t.Fatalf("Close after error: %v", err)
				}
			}

			s, err := NewScanner(bytes.NewReader(bad), ScanOptions{})
			if err != nil {
				return // header corrupt: rejected at open, also fine
			}
			for s.Scan() {
			}
			if s.Err() == nil {
				t.Fatalf("NewScanner missed the corruption at offset %d", sc.off)
			}
		})
	}
}

// TestParallelScanEarlyClose abandons scans mid-flight and checks every
// producer goroutine unwinds: Close must drain the in-flight blocks, not
// strand workers on a channel nobody reads.
func TestParallelScanEarlyClose(t *testing.T) {
	recs := synthRecords(20000)
	raw := encode(t, recs, WriterOptions{BlockRecords: 64})
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		ps := f.ScanParallel(ScanOptions{}, 8)
		for j := 0; j < 10 && ps.Scan(); j++ {
		}
		if err := ps.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if ps.Scan() {
			t.Fatalf("Scan succeeded after Close")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after five abandoned scans: workers leaked", before, n)
	}
}

// TestParallelScanBatchInterleave mixes Scan and ScanBatch on one
// scanner; together they must reconstruct the exact sequential record
// stream, with Record() tracking the last yielded record either way.
func TestParallelScanBatchInterleave(t *testing.T) {
	recs := synthRecords(1203)
	raw := encode(t, recs, WriterOptions{BlockRecords: 50})
	s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := scanAll(t, s)

	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	ps := f.ScanParallel(ScanOptions{}, 3)
	defer ps.Close()
	var got []failures.Record
	for turn := 0; ; turn++ {
		if turn%2 == 0 {
			advanced := false
			for k := 0; k < 3 && ps.Scan(); k++ {
				got = append(got, ps.Record())
				advanced = true
			}
			if !advanced {
				break
			}
		} else {
			b, err := ps.ScanBatch()
			if err != nil {
				t.Fatalf("ScanBatch: %v", err)
			}
			if b == nil {
				break
			}
			if ps.Record() != b[len(b)-1] {
				t.Fatalf("Record() after ScanBatch is not the batch's last record")
			}
			got = append(got, b...)
		}
	}
	if err := ps.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaved Scan/ScanBatch yielded %d records, want %d (or field mismatch)", len(got), len(want))
	}
}

// TestParallelScanBatchSteadyStateAllocs pins the buffer pooling: once
// the recycled record buffers have grown to block size, draining a
// block costs a small constant number of allocations (the batch
// envelope and its ready channel), not per-record garbage.
func TestParallelScanBatchSteadyStateAllocs(t *testing.T) {
	recs := synthRecords(60000)
	raw := encode(t, recs, WriterOptions{BlockRecords: 512})
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	ps := f.ScanParallel(ScanOptions{}, 4)
	defer ps.Close()
	for i := 0; i < 20; i++ {
		b, err := ps.ScanBatch()
		if err != nil || b == nil {
			t.Fatalf("trace exhausted during warmup at batch %d (err=%v)", i, err)
		}
	}
	const perRun = 10
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < perRun; i++ {
			b, err := ps.ScanBatch()
			if err != nil || b == nil {
				t.Fatalf("trace exhausted mid-measurement (err=%v)", err)
			}
		}
	})
	if perBatch := avg / perRun; perBatch > 16 {
		t.Fatalf("steady-state ScanBatch allocates %.1f allocs/block, want a small constant (buffer pooling broken)", perBatch)
	}
}

// TestParallelScanBufferBytes pins how a whole scan allocates its record
// buffers: each is allocated once at its block's record count, so a
// scan of many blocks allocates about workers+1 blocks' worth of
// records. Buffers grown by append would cost several times that.
func TestParallelScanBufferBytes(t *testing.T) {
	const blockRecs, workers = 4096, 2
	recs := synthRecords(40 * blockRecs)
	raw := encode(t, recs, WriterOptions{BlockRecords: blockRecs})
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ps := f.ScanParallel(ScanOptions{}, workers)
	n := 0
	for {
		b, err := ps.ScanBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += len(b)
	}
	ps.Close()
	runtime.ReadMemStats(&after)
	if n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	block := uint64(blockRecs) * uint64(unsafe.Sizeof(failures.Record{}))
	// workers+1 buffers, plus room for frames and the pool's bookkeeping.
	if got, limit := after.TotalAlloc-before.TotalAlloc, (workers+2)*block; got > limit {
		t.Fatalf("scan allocated %d bytes, want at most %d (%d blocks of %d bytes)", got, limit, workers+2, block)
	}
}

// TestOpenWindowExtremeStarts is a regression test: the scan window used
// to be half-open in nanoseconds internally, so an open upper bound
// became toN = MaxInt64 and a record starting at exactly MaxInt64 ns was
// silently dropped by every reader (and its block could be skipped
// outright). Bounds are now inclusive; the full int64 range scans.
func TestOpenWindowExtremeStarts(t *testing.T) {
	lo := time.Unix(0, math.MinInt64).UTC()
	hi := time.Unix(0, math.MaxInt64).UTC()
	mid := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(ts time.Time) failures.Record {
		r := synthRecords(1)[0]
		r.Start, r.End = ts, ts
		return r
	}
	recs := []failures.Record{mk(lo), mk(mid), mk(hi)}
	raw := encode(t, recs, WriterOptions{BlockRecords: 1})

	check := func(name string, opts ScanOptions, want int) {
		t.Helper()
		s, err := NewScanner(bytes.NewReader(raw), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := scanAll(t, s); len(got) != want {
			t.Fatalf("%s: Scanner yielded %d records, want %d", name, len(got), want)
		}
		f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		if got := scanAll(t, f.Scan(opts)); len(got) != want {
			t.Fatalf("%s: File.Scan yielded %d records, want %d", name, len(got), want)
		}
		if got := scanAll(t, f.ScanParallel(opts, 2)); len(got) != want {
			t.Fatalf("%s: ScanParallel yielded %d records, want %d", name, len(got), want)
		}
	}

	check("open", ScanOptions{}, 3)
	check("from=MaxInt64", ScanOptions{From: hi}, 1)
	check("to=MaxInt64", ScanOptions{To: hi}, 2) // To is exclusive
	check("from=MinInt64", ScanOptions{From: lo}, 3)
	check("to=mid", ScanOptions{To: mid}, 1)
}

// TestWindowExactBlockBoundaries pins the skip logic at the index edges:
// From equal to a block's MaxStart must still scan that block; To equal
// to a block's MinStart must skip it without reading it.
func TestWindowExactBlockBoundaries(t *testing.T) {
	base := time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := synthRecords(8)
	for i := range recs {
		recs[i].Start = base.Add(time.Duration(i) * time.Hour)
		recs[i].End = recs[i].Start.Add(time.Minute)
	}
	raw := encode(t, recs, WriterOptions{BlockRecords: 4})

	cra := &atomicReaderAt{r: bytes.NewReader(raw)}
	f, err := NewFile(cra, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks()) != 2 {
		t.Fatalf("want 2 blocks, got %d", len(f.Blocks()))
	}

	// To == second block's MinStart: its records are all excluded, so the
	// block must not cost a single read.
	openReads := cra.reads.Load()
	if got := scanAll(t, f.Scan(ScanOptions{To: base.Add(4 * time.Hour)})); len(got) != 4 {
		t.Fatalf("To at block boundary: %d records, want 4", len(got))
	}
	if n := cra.reads.Load() - openReads; n > 2 {
		t.Fatalf("scan of one block issued %d reads, want <= 2: boundary block not skipped", n)
	}

	// From == first block's MaxStart: the boundary record itself is
	// in-window, so the first block must still be scanned.
	if got := scanAll(t, f.Scan(ScanOptions{From: base.Add(3 * time.Hour)})); len(got) != 5 {
		t.Fatalf("From at block max: %d records, want 5", len(got))
	}
	if got := scanAll(t, f.ScanParallel(ScanOptions{From: base.Add(3 * time.Hour)}, 2)); len(got) != 5 {
		t.Fatalf("From at block max (parallel): %d records, want 5", len(got))
	}
	if got := scanAll(t, f.ScanParallel(ScanOptions{To: base.Add(4 * time.Hour)}, 2)); len(got) != 4 {
		t.Fatalf("To at block boundary (parallel): %d records, want 4", len(got))
	}
}

// TestTruncatedHeaderClassification is a regression test: an input that
// ends inside the 8-byte header but matches the magic as far as it goes
// used to come back as ErrBadMagic ("not a trace") even though the
// format sniffer had just said it was one. It is a truncated trace.
func TestTruncatedHeaderClassification(t *testing.T) {
	raw := encode(t, synthRecords(3), WriterOptions{})
	for _, n := range []int{1, 3, len(magic), len(magic) + 1} {
		if _, err := NewScanner(bytes.NewReader(raw[:n]), ScanOptions{}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("NewScanner on %d-byte magic prefix: got %v, want ErrTruncated", n, err)
		}
	}
	if _, err := NewScanner(bytes.NewReader([]byte("XYZ")), ScanOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign short file: got %v, want ErrBadMagic", err)
	}
	if _, err := NewScanner(bytes.NewReader(nil), ScanOptions{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty file: got %v, want ErrBadMagic", err)
	}
}

// TestSniffMagicShortPrefix: sniffing must never claim a trace on fewer
// bytes than the magic, and must leave the input unconsumed.
func TestSniffMagicShortPrefix(t *testing.T) {
	sniff := func(p string) bool {
		t.Helper()
		br := bufio.NewReader(strings.NewReader(p))
		ok, err := sniffMagic(br)
		if err != nil {
			t.Fatalf("sniffMagic(%q): %v", p, err)
		}
		if rest, _ := io.ReadAll(br); string(rest) != p {
			t.Fatalf("sniffMagic(%q) consumed input, left %q", p, rest)
		}
		return ok
	}
	for _, p := range []string{"", "H", "HPC", "XPCTRC"} {
		if sniff(p) {
			t.Fatalf("sniffMagic(%q) = true", p)
		}
	}
	if !sniff(magic) || !sniff(magic+"\x01\x00extra") {
		t.Fatalf("sniffMagic rejected a real trace prefix")
	}
}
