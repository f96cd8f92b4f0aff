package tracefmt

import (
	"fmt"
	"io"
	"os"

	"hpcfail/internal/binx"
	"hpcfail/internal/failures"
)

// File is a binary trace opened for random access: the footer's block
// index and complete dictionaries are loaded once, after which scans
// seek straight to the blocks a time range can touch and skip the rest
// unread. Any io.ReaderAt works — an *os.File, an mmap'd byte slice
// wrapped in bytes.NewReader, an in-memory buffer.
type File struct {
	ra     io.ReaderAt
	closer io.Closer
	footer
}

// footer is a parsed footer frame: the record total, the block index
// and the complete dictionaries in first-appearance order.
type footer struct {
	records uint64
	blocks  []BlockInfo
	hwDict  []failures.HWType
	detDict []string
}

// OpenFile opens a trace file on disk; Close releases it.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tf, err := NewFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	tf.closer = f
	return tf, nil
}

// NewFile opens a trace held by any random-access reader of the given
// size, verifying the header, trailer and footer frame before returning.
func NewFile(ra io.ReaderAt, size int64) (*File, error) {
	if size < int64(headerSize+trailerSize) {
		return nil, fmt.Errorf("%w: %d bytes is too short for a trace file", ErrTruncated, size)
	}
	if err := readHeader(io.NewSectionReader(ra, 0, size)); err != nil {
		return nil, err
	}
	var tr [trailerSize]byte
	if _, err := ra.ReadAt(tr[:], size-int64(trailerSize)); err != nil {
		return nil, fmt.Errorf("tracefmt: read trailer: %w", err)
	}
	footOff, err := parseTrailer(tr)
	if err != nil {
		return nil, err
	}
	footEnd := size - int64(trailerSize)
	if footOff < int64(headerSize) || footOff >= footEnd {
		return nil, fmt.Errorf("%w: footer offset %d outside file", ErrFormat, footOff)
	}
	kind, payload, err := readFrame(io.NewSectionReader(ra, footOff, footEnd-footOff), nil)
	if err != nil {
		return nil, err
	}
	if kind != frameFooter {
		return nil, fmt.Errorf("%w: trailer points at frame kind %d, want footer", ErrFormat, kind)
	}
	ft, err := parseFooter(payload, footOff)
	if err != nil {
		return nil, err
	}
	return &File{ra: ra, footer: ft}, nil
}

// parseFooter parses and validates a footer payload; footOff is the
// footer frame's own offset, which every indexed block must precede.
func parseFooter(p []byte, footOff int64) (footer, error) {
	var ft footer
	r := binx.NewReader(p, ErrFormat)
	ft.records = r.U64()
	nBlocks := r.Bound(uint64(r.U32()), footerEntrySize)
	var sum uint64
	// Block offsets must be strictly increasing and non-overlapping:
	// each block's frame needs at least its header, the fixed prefix,
	// the two dictionary-delta counts and its columns before the next
	// can begin. A hostile index that aims two entries at the same
	// bytes, or past the footer, is rejected here — before ScanParallel
	// hands the entries to concurrent workers to dereference.
	minOff := int64(headerSize)
	for i := 0; i < nBlocks; i++ {
		b := BlockInfo{
			Offset:   int64(r.U64()),
			Records:  int(r.U32()),
			MinStart: int64(r.U64()),
			MaxStart: int64(r.U64()),
		}
		if b.Records <= 0 || b.Records > maxFramePayload/recordWidth {
			return ft, fmt.Errorf("%w: footer block %d: %d records", ErrFormat, i, b.Records)
		}
		if b.Offset < minOff || b.Offset >= footOff {
			return ft, fmt.Errorf("%w: footer block %d: offset %d overlaps block %d or the footer", ErrFormat, i, b.Offset, i-1)
		}
		minOff = b.Offset + int64(frameSize+blockPrefixSize+2+4) + int64(b.Records)*recordWidth
		sum += uint64(b.Records)
		ft.blocks = append(ft.blocks, b)
	}
	if err := parseDicts(r, &ft.hwDict, &ft.detDict, true); err != nil {
		return ft, err
	}
	if err := r.Done(); err != nil {
		return ft, err
	}
	if sum != ft.records {
		return ft, fmt.Errorf("%w: footer total %d, blocks sum to %d", ErrFormat, ft.records, sum)
	}
	return ft, nil
}

// Records returns the total number of records in the trace.
func (f *File) Records() int { return int(f.records) }

// Blocks returns the footer's block index (shared slice; do not mutate).
func (f *File) Blocks() []BlockInfo { return f.blocks }

// Close releases the underlying file when the File owns one (OpenFile);
// for a caller-supplied ReaderAt it is a no-op.
func (f *File) Close() error {
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// Scan returns a Scanner over the records in the options' time window:
// ScanParallel at one decode worker. Blocks whose footer index proves
// them disjoint from the window are never read from the underlying
// reader — a narrow window over a long trace touches O(matching
// blocks), not O(file).
func (f *File) Scan(opts ScanOptions) *Scanner { return f.ScanParallel(opts, 1) }

// decodeBlockAt reads, verifies and decodes one indexed block, appending
// its in-window records to dst. frameBuf is the caller's reusable frame
// buffer; the (possibly regrown) buffer is returned for the next call.
// The decoded record count must match the footer index — a block that
// disagrees with its own index entry is malformed, whichever is lying.
func (f *File) decodeBlockAt(b BlockInfo, frameBuf []byte, fromN, toInc int64, dst []failures.Record) ([]failures.Record, []byte, error) {
	kind, p, err := readFrame(io.NewSectionReader(f.ra, b.Offset, frameSize+maxFramePayload), frameBuf)
	if err != nil {
		return dst, frameBuf, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	if kind != frameBlock {
		return dst, p, fmt.Errorf("%w: index points at frame kind %d, want block", ErrFormat, kind)
	}
	n, _, _, colOff, err := parseBlock(p, nil, nil, false)
	if err != nil {
		return dst, p, err
	}
	if n != b.Records {
		return dst, p, fmt.Errorf("%w: block at %d holds %d records, index says %d", ErrFormat, b.Offset, n, b.Records)
	}
	dst, err = decodeColumns(p, colOff, n, f.hwDict, f.detDict, fromN, toInc, dst)
	return dst, p, err
}
