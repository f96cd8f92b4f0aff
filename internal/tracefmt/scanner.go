package tracefmt

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"hpcfail/internal/binx"
	"hpcfail/internal/failures"
)

// ScanOptions configures a Scanner.
type ScanOptions struct {
	// From and To bound the start times of the yielded records to
	// [From, To), like failures.Dataset.Between. A zero time leaves
	// that end open. Blocks whose [min, max] start-time index falls
	// entirely outside the window are skipped without decoding a
	// single record — and, when scanning through a File, without even
	// being read.
	From, To time.Time
}

// Scanner yields the records of a binary trace in file order. It
// implements the same Scan/Record/Err shape as failures.Scanner, so it
// plugs directly into engine.AnalyzeStream as a RecordSource, and
// ScanBatch (engine.BatchSource), which hands the fused pipeline a
// whole decoded block per call.
//
// Every Scanner consumes whole decoded blocks from one of two block
// suppliers: NewScanner reads a stream block by block on the caller's
// goroutine, and File.ScanParallel (File.Scan at one worker) decodes
// through the footer index on a worker pool ahead of the consumer. Both
// decode with the same column loop and yield identical records. Record
// buffers are reused across blocks, so steady-state scanning allocates
// only when a block outgrows its buffer; dictionary strings are shared
// by every record that carries them.
type Scanner struct {
	// next returns the next non-empty decoded block, or nil at a clean
	// end. The block it returned before is drained by then, so the
	// supplier may reuse that buffer.
	next func() ([]failures.Record, error)
	// stop releases the supplier's goroutines; nil when it has none.
	stop func()

	cur  []failures.Record
	i    int
	rec  failures.Record
	err  error
	done bool
}

// nextBatch replaces the drained block with the next non-empty one;
// nil means end of scan (s.err says whether it was clean).
func (s *Scanner) nextBatch() []failures.Record {
	if s.done {
		return nil
	}
	b, err := s.next()
	s.cur, s.i = b, 0
	if err != nil || b == nil {
		s.cur, s.err, s.done = nil, err, true
		return nil
	}
	return b
}

// Scan advances to the next record in the scan window, reporting false
// at the end of the trace or on the first error (see Err).
func (s *Scanner) Scan() bool {
	for s.i >= len(s.cur) {
		if s.nextBatch() == nil {
			return false
		}
	}
	s.rec = s.cur[s.i]
	s.i++
	return true
}

// ScanBatch yields the in-window records of the next block (or the
// unconsumed rest of the current one, if Scan was used mid-block),
// returning (nil, nil) at a clean end of scan. The slice is valid until
// the next ScanBatch or Scan call.
func (s *Scanner) ScanBatch() ([]failures.Record, error) {
	b := s.cur[s.i:]
	if len(b) == 0 {
		if b = s.nextBatch(); b == nil {
			return nil, s.err
		}
	}
	s.i = len(s.cur)
	s.rec = b[len(b)-1]
	return b, nil
}

// Record returns the record produced by the last successful Scan (after
// ScanBatch: the last record of the batch).
func (s *Scanner) Record() failures.Record { return s.rec }

// Err returns the error that stopped the scan, if any. A clean end of
// trace is not an error.
func (s *Scanner) Err() error { return s.err }

// Close ends the scan early, releasing any decode goroutines without
// waiting for the scan to finish; records decoded but not yet consumed
// are discarded. It is always safe to defer; a scan that ran to its
// end (or first error) needs no Close.
func (s *Scanner) Close() error {
	if s.stop != nil {
		s.stop()
	}
	s.done = true
	s.cur, s.i = nil, 0
	return nil
}

// NewScanner reads a binary trace sequentially from r — a file, a pipe,
// anything — without needing random access: dictionaries build
// incrementally from the per-block deltas. The footer at the end of the
// stream must then agree with everything streamed before it — block
// index (window-skipped blocks included), dictionaries and the
// trailer's footer offset — so a trace the stream accepts reads
// identically through File. The reader must be positioned at the start
// of the trace. The Scanner runs on the caller's goroutine.
func NewScanner(r io.Reader, opts ScanOptions) (*Scanner, error) {
	if err := readHeader(r); err != nil {
		return nil, err
	}
	fromN, toInc := scanBounds(opts)
	var (
		frameBuf []byte
		buf      []failures.Record // the decoded block, reused
		seen     footer            // the index and dictionaries streamed so far
		off      = int64(headerSize)
	)
	next := func() ([]failures.Record, error) {
		for {
			kind, p, err := readFrame(r, frameBuf)
			if err != nil {
				return nil, err
			}
			frameBuf = p
			frameOff := off
			off += int64(frameSize + len(p))
			switch kind {
			case frameBlock:
				n, minS, maxS, colOff, err := parseBlock(p, &seen.hwDict, &seen.detDict, true)
				if err != nil {
					return nil, err
				}
				b := BlockInfo{Offset: frameOff, Records: n, MinStart: minS, MaxStart: maxS}
				seen.blocks = append(seen.blocks, b)
				if !b.overlaps(fromN, toInc) {
					continue
				}
				buf, err = decodeColumns(p, colOff, n, seen.hwDict, seen.detDict, fromN, toInc, buf[:0])
				if err != nil || len(buf) > 0 {
					return buf, err
				}
			case frameFooter:
				return nil, endStream(r, p, frameOff, &seen)
			default:
				return nil, fmt.Errorf("%w: unknown frame kind %d", ErrFormat, kind)
			}
		}
	}
	return &Scanner{next: next}, nil
}

// endStream checks the footer frame found at footOff, and the trailer
// after it, against what the stream decoded before it. The footer
// total needs no separate check: parseFooter requires it to equal the
// sum of the index, which must equal the streamed blocks.
func endStream(r io.Reader, p []byte, footOff int64, seen *footer) error {
	ft, err := parseFooter(p, footOff)
	if err != nil {
		return err
	}
	if !slices.Equal(ft.blocks, seen.blocks) {
		return fmt.Errorf("%w: footer index disagrees with the %d streamed blocks", ErrFormat, len(seen.blocks))
	}
	if !slices.Equal(ft.hwDict, seen.hwDict) || !slices.Equal(ft.detDict, seen.detDict) {
		return fmt.Errorf("%w: footer dictionaries disagree with the streamed block deltas", ErrFormat)
	}
	var tr [trailerSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return fmt.Errorf("%w: reading trailer: %v", ErrTruncated, err)
	}
	off, err := parseTrailer(tr)
	if err != nil {
		return err
	}
	if off != footOff {
		return fmt.Errorf("%w: trailer locates the footer at %d, stream found it at %d", ErrFormat, off, footOff)
	}
	if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return fmt.Errorf("%w: data after trailer", ErrFormat)
	}
	return nil
}

// readHeader consumes and verifies the file header. An input that ends
// inside the header but matches the magic as far as it goes is a
// truncated trace (ErrTruncated), not a foreign file (ErrBadMagic).
func readHeader(r io.Reader) error {
	var hdr [headerSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		if (err == io.EOF || err == io.ErrUnexpectedEOF) &&
			n > 0 && string(hdr[:min(n, len(magic))]) == magic[:min(n, len(magic))] {
			return fmt.Errorf("%w: file ends inside the %d-byte header", ErrTruncated, headerSize)
		}
		return fmt.Errorf("%w: reading header: %v", ErrBadMagic, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrBadMagic, hdr[:len(magic)])
	}
	if v := le.Uint16(hdr[len(magic):]); v != Version {
		return fmt.Errorf("%w: file version %d, reader supports %d", ErrVersion, v, Version)
	}
	return nil
}

// parseTrailer verifies the trailer's magic and returns the footer
// offset it records.
func parseTrailer(tr [trailerSize]byte) (int64, error) {
	if string(tr[8:]) != trailerMagic {
		return 0, fmt.Errorf("%w: bad trailer magic %q (file truncated or not Closed)", ErrBadMagic, tr[8:])
	}
	return int64(le.Uint64(tr[:])), nil
}

// scanBounds converts a ScanOptions window to inclusive epoch-nanosecond
// bounds: a record matches iff fromN <= startN <= toInc. Open ends map
// to MinInt64/MaxInt64, so a fully open scan admits every representable
// start time including math.MaxInt64 (a half-open upper bound cannot
// express that). An impossible window — To at or before the epoch
// range, or From beyond it — collapses to the empty sentinel
// (MaxInt64, MinInt64), which no start time satisfies.
func scanBounds(opts ScanOptions) (fromN, toInc int64) {
	fromN, toInc = math.MinInt64, math.MaxInt64
	if !opts.From.IsZero() {
		if n, err := epochNanos(opts.From, "range from"); err == nil {
			fromN = n
		} else if opts.From.Unix() > 0 {
			// Beyond the representable range: nothing can match.
			return math.MaxInt64, math.MinInt64
		}
		// From before the representable range stays fully open.
	}
	if !opts.To.IsZero() {
		if n, err := epochNanos(opts.To, "range to"); err == nil {
			if n == math.MinInt64 {
				return math.MaxInt64, math.MinInt64
			}
			toInc = n - 1 // [From, To) excludes To itself
		} else if opts.To.Unix() < 0 {
			return math.MaxInt64, math.MinInt64
		}
		// To beyond the representable range stays fully open.
	}
	return fromN, toInc
}

// readFrame reads one frame from r into buf (grown as needed) and
// returns its kind and CRC-verified payload, which aliases buf when it
// fits; callers pass the returned payload back in to reuse it. A File
// reads the frame at an offset through an io.SectionReader.
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [frameSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: file ends before the footer", ErrTruncated)
		}
		return 0, nil, fmt.Errorf("tracefmt: read frame: %w", err)
	}
	n := int(le.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d bytes exceeds the %d cap", ErrFormat, n, maxFramePayload)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	p := buf[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
	}
	if got, want := crc32Checksum(p), le.Uint32(hdr[5:]); got != want {
		return 0, nil, fmt.Errorf("%w: payload CRC %08x, frame says %08x", ErrChecksum, got, want)
	}
	return hdr[0], p, nil
}

// parseBlock validates a block payload's prefix and dictionary-delta
// section and returns the record count, the block's start-time bounds
// and the offset of the column section. When appendDicts is true the
// delta entries are appended to *hwDict / *detDict (sequential stream
// decode); otherwise they are skipped unread, because the caller's
// dictionaries were preloaded from the footer and skipped blocks may
// already have contributed entries.
func parseBlock(p []byte, hwDict *[]failures.HWType, detDict *[]string, appendDicts bool) (n int, minStart, maxStart int64, colOff int, err error) {
	r := binx.NewReader(p, ErrFormat)
	n = int(r.U32())
	minStart = int64(r.U64())
	maxStart = int64(r.U64())
	if err := parseDicts(r, hwDict, detDict, appendDicts); err != nil {
		return 0, 0, 0, 0, err
	}
	if n < 0 || n > maxFramePayload/recordWidth {
		return 0, 0, 0, 0, fmt.Errorf("%w: block record count %d", ErrFormat, n)
	}
	if want := r.Offset() + n*recordWidth; want != len(p) {
		return 0, 0, 0, 0, fmt.Errorf("%w: block is %d bytes, columns need %d", ErrFormat, len(p), want)
	}
	return n, minStart, maxStart, r.Offset(), nil
}

// parseDicts reads a hardware and a detail dictionary section — a
// block's deltas or the footer's complete tables — appending the
// entries to *hwDict / *detDict when keep is true. Each entry is a u16
// length and its bytes, so a count is bounded at two bytes an entry.
func parseDicts(r *binx.Reader, hwDict *[]failures.HWType, detDict *[]string, keep bool) error {
	nHW := r.Bound(uint64(r.U16()), 2)
	for i := 0; i < nHW; i++ {
		b := r.Bytes(int(r.U16()))
		if keep {
			if len(*hwDict) >= maxHWDict {
				return fmt.Errorf("%w: hardware dictionary overflow", ErrFormat)
			}
			*hwDict = append(*hwDict, failures.HWType(b))
		}
	}
	nDet := r.Bound(uint64(r.U32()), 2)
	for i := 0; i < nDet; i++ {
		b := r.Bytes(int(r.U16()))
		if keep {
			if len(*detDict) >= maxDetailDict {
				return fmt.Errorf("%w: detail dictionary overflow", ErrFormat)
			}
			*detDict = append(*detDict, string(b))
		}
	}
	return r.Err()
}

// decodeColumns appends the n records of a block's column section
// (starting at colOff in p) to dst, keeping only start times inside the
// inclusive [fromN, toInc] window. The dictionaries must already
// contain every index the block references. It is the one record
// decode loop: every Scanner supplier ends here.
func decodeColumns(p []byte, colOff, n int, hwDict []failures.HWType, detDict []string, fromN, toInc int64, dst []failures.Record) ([]failures.Record, error) {
	oStart := colOff
	oEnd := oStart + 8*n
	oSys := oEnd + 8*n
	oNod := oSys + 4*n
	oHW := oNod + 4*n
	oWL := oHW + 2*n
	oCause := oWL + n
	oDet := oCause + n
	for i := 0; i < n; i++ {
		startN := int64(le.Uint64(p[oStart+8*i:]))
		if startN < fromN || startN > toInc {
			continue
		}
		endD := int64(le.Uint64(p[oEnd+8*i:]))
		hw := int(le.Uint16(p[oHW+2*i:]))
		det := int(le.Uint32(p[oDet+4*i:]))
		if hw >= len(hwDict) || det >= len(detDict) {
			return dst, fmt.Errorf("%w: dictionary index out of range (hw %d/%d, detail %d/%d)",
				ErrFormat, hw, len(hwDict), det, len(detDict))
		}
		dst = append(dst, failures.Record{
			System:   int(int32(le.Uint32(p[oSys+4*i:]))),
			Node:     int(int32(le.Uint32(p[oNod+4*i:]))),
			HW:       hwDict[hw],
			Workload: failures.Workload(p[oWL+i]),
			Cause:    failures.RootCause(p[oCause+i]),
			Detail:   detDict[det],
			Start:    time.Unix(0, startN).UTC(),
			End:      time.Unix(0, startN+endD).UTC(),
		})
	}
	return dst, nil
}
