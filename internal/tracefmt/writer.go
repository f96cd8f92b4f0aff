package tracefmt

import (
	"fmt"
	"io"
	"math"
	"time"
	"unsafe"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
)

// WriterOptions configures a Writer; the zero value selects every
// default.
type WriterOptions struct {
	// BlockRecords is the number of records per block; <= 0 uses
	// DefaultBlockRecords.
	BlockRecords int
	// Workers sets how many goroutines encode block payloads in
	// parallel; <= 1 means one. Output bytes are identical at every
	// worker count: dictionary indexes are assigned in record order on
	// the caller's goroutine, workers only turn finished row batches
	// into frames, and the caller's goroutine writes the frames in
	// submission order (see DESIGN.md, "Block-order writes").
	Workers int
}

// A Writer encodes failure records into the columnar binary trace
// format, one record at a time, so a producer (a CSV scanner, the LANL
// generator's record stream) can write traces of any size in
// bounded memory. The header goes out at construction; Close flushes
// the final block, the footer and the trailer, and must be called for
// the file to be readable.
//
// The per-record path appends a fixed-width row to a reusable block
// buffer: after the first few blocks it allocates only when a
// never-before-seen label enters a dictionary. Each full block goes to
// a pool of Workers encoders for the row→frame encode (column
// transpose, dictionary deltas, CRC); once Workers+2 blocks are
// pending, the Write that fills the next block first writes the oldest
// finished frame. Validation errors surface from the offending Write;
// an encode or I/O error surfaces from the Write or Close that writes
// the failing frame. Close, successful or not, also stops the pool; it
// is the only way to release the encode goroutines.
type Writer struct {
	w      io.Writer
	blockN int

	// rows is the block under construction; hwNew/detNew hold the
	// dictionary entries first seen in it, flushed with it.
	rows   []encRow
	hwNew  []failures.HWType
	detNew []string

	// Dictionaries, global across the file.
	hwIdx  map[failures.HWType]uint16
	hwAll  []failures.HWType
	detIdx map[string]uint32
	detAll []string

	// Lookup caches in front of the dictionary maps. lastHW is the
	// previous record's hardware label, constant over a system's run of
	// records; detCache is direct-mapped on a detail label's data
	// pointer and length, which a producer handing out labels from fixed
	// tables (the LANL generator) repeats. A miss falls back to the map,
	// so the caches never change which index a label gets.
	lastHW   labelSlot
	detCache [1 << detCacheBits]labelSlot

	// File assembly state; total counts the records of every block
	// handed to the pool, index only the blocks written.
	offset int64 // bytes written so far
	index  []BlockInfo
	total  uint64
	closed bool
	err    error

	pool *par.Ordered[encJob]
}

// encJob carries one block's rows through an encode worker, which
// renders the frame, back to the Writer, which writes it. A written
// job's buffers are reused for the next block, so a running Writer
// owns a fixed set of buffers: Workers+2 jobs plus the block under
// construction.
type encJob struct {
	rows   []encRow
	hwNew  []failures.HWType
	detNew []string
	frame  []byte
	minS   int64
	maxS   int64
	err    error
}

// encRow is one record, validated and dictionary-indexed, waiting to be
// transposed into its block's columns.
type encRow struct {
	startN int64
	endD   int64
	sys    uint32
	nod    uint32
	det    uint32
	hw     uint16
	wl     byte
	cause  byte
}

// detCacheBits sizes the Writer's detail-label cache at 64 slots.
const detCacheBits = 6

// labelSlot is one cached dictionary entry: the label as last seen,
// whose string header keeps its bytes alive so an equal data pointer
// and length mean equal contents, and its index + 1 (0: empty slot).
type labelSlot struct {
	label string
	idx1  uint32
}

// lookup returns the cached index of label if the slot holds the same
// bytes at the same address.
func (s *labelSlot) lookup(label string) (uint32, bool) {
	if s.idx1 != 0 && len(s.label) == len(label) && unsafe.StringData(s.label) == unsafe.StringData(label) {
		return s.idx1 - 1, true
	}
	return 0, false
}

// NewWriter writes the file header to w and returns a Writer.
func NewWriter(w io.Writer, opts WriterOptions) (*Writer, error) {
	n := opts.BlockRecords
	if n <= 0 {
		n = DefaultBlockRecords
	}
	tw := &Writer{
		w:      w,
		blockN: n,
		hwIdx:  make(map[failures.HWType]uint16),
		detIdx: make(map[string]uint32),
	}
	hdr := append([]byte(magic), 0, 0)
	le.PutUint16(hdr[len(magic):], Version)
	if err := tw.writeRaw(hdr); err != nil {
		return nil, fmt.Errorf("tracefmt: write header: %w", err)
	}
	workers := max(opts.Workers, 1)
	tw.pool = par.NewOrdered(workers, workers+2, func(_ int, j encJob) encJob {
		j.frame, j.minS, j.maxS, j.err = appendBlockFrame(j.frame[:0], j.rows, j.hwNew, j.detNew)
		return j
	})
	return tw, nil
}

func (w *Writer) writeRaw(b []byte) error {
	n, err := w.w.Write(b)
	w.offset += int64(n)
	if err != nil {
		w.err = err
	}
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return int(w.total) + len(w.rows) }

// Write appends one record. Records are stored exactly as given — the
// format neither sorts nor validates beyond what it can represent: times
// within the int64 epoch-nanosecond range, system and node within
// int32, workload and cause within their enum ranges.
func (w *Writer) Write(r failures.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefmt: write after Close")
	}
	startN, err := epochNanos(r.Start, "start")
	if err != nil {
		return w.poison(err)
	}
	endN, err := epochNanos(r.End, "end")
	if err != nil {
		return w.poison(err)
	}
	if r.System < 0 || int64(r.System) > math.MaxInt32 {
		return w.poison(fmt.Errorf("tracefmt: system ID %d outside int32", r.System))
	}
	if r.Node < 0 || int64(r.Node) > math.MaxInt32 {
		return w.poison(fmt.Errorf("tracefmt: node ID %d outside int32", r.Node))
	}
	if r.Workload < 0 || r.Workload > 255 {
		return w.poison(fmt.Errorf("tracefmt: workload %d outside byte range", int(r.Workload)))
	}
	if r.Cause < 0 || r.Cause > 255 {
		return w.poison(fmt.Errorf("tracefmt: cause %d outside byte range", int(r.Cause)))
	}
	hw, err := w.hwIndex(r.HW)
	if err != nil {
		return w.poison(err)
	}
	det, err := w.detIndex(r.Detail)
	if err != nil {
		return w.poison(err)
	}

	w.rows = append(w.rows, encRow{
		startN: startN,
		endD:   endN - startN,
		sys:    uint32(r.System),
		nod:    uint32(r.Node),
		det:    det,
		hw:     hw,
		wl:     byte(r.Workload),
		cause:  byte(r.Cause),
	})
	if len(w.rows) >= w.blockN {
		return w.submitBlock()
	}
	return nil
}

func (w *Writer) poison(err error) error {
	w.err = err
	return err
}

// epochNanos converts a time to epoch nanoseconds, rejecting instants
// the int64 range cannot represent (UnixNano would silently wrap).
func epochNanos(t time.Time, what string) (int64, error) {
	n := t.UnixNano()
	if !time.Unix(0, n).Equal(t) {
		return 0, fmt.Errorf("tracefmt: %s time %v outside the epoch-nanosecond range", what, t)
	}
	return n, nil
}

func (w *Writer) hwIndex(hw failures.HWType) (uint16, error) {
	if i, ok := w.lastHW.lookup(string(hw)); ok {
		return uint16(i), nil
	}
	if i, ok := w.hwIdx[hw]; ok {
		w.lastHW = labelSlot{string(hw), uint32(i) + 1}
		return i, nil
	}
	if len(hw) > maxLabelLen {
		return 0, fmt.Errorf("tracefmt: hardware label %d bytes long, max %d", len(hw), maxLabelLen)
	}
	if len(w.hwAll) >= maxHWDict {
		return 0, fmt.Errorf("tracefmt: more than %d distinct hardware labels", maxHWDict)
	}
	i := uint16(len(w.hwAll))
	w.lastHW = labelSlot{string(hw), uint32(i) + 1}
	w.hwIdx[hw] = i
	w.hwAll = append(w.hwAll, hw)
	w.hwNew = append(w.hwNew, hw)
	return i, nil
}

func (w *Writer) detIndex(det string) (uint32, error) {
	// A Fibonacci hash of address and length picks the slot.
	h := uint64(uintptr(unsafe.Pointer(unsafe.StringData(det)))) + uint64(len(det))
	slot := &w.detCache[h*0x9e3779b97f4a7c15>>(64-detCacheBits)]
	if i, ok := slot.lookup(det); ok {
		return i, nil
	}
	if i, ok := w.detIdx[det]; ok {
		*slot = labelSlot{det, i + 1}
		return i, nil
	}
	if len(det) > maxLabelLen {
		return 0, fmt.Errorf("tracefmt: detail label %d bytes long, max %d", len(det), maxLabelLen)
	}
	if len(w.detAll) >= maxDetailDict {
		return 0, fmt.Errorf("tracefmt: more than %d distinct detail labels", maxDetailDict)
	}
	i := uint32(len(w.detAll))
	*slot = labelSlot{det, i + 1}
	w.detIdx[det] = i
	w.detAll = append(w.detAll, det)
	w.detNew = append(w.detNew, det)
	return i, nil
}

// appendBlockFrame appends a complete block frame — header, prefix,
// dictionary deltas, transposed columns, CRC — to dst and returns the
// block's start-time bounds. It is pure (touches no Writer state), so
// every pool worker produces identical bytes for identical inputs.
func appendBlockFrame(dst []byte, rows []encRow, hwNew []failures.HWType, detNew []string) ([]byte, int64, int64, error) {
	base := len(dst)
	var zero [frameSize]byte
	dst = append(dst, zero[:]...)
	minS, maxS := rows[0].startN, rows[0].startN
	for _, r := range rows[1:] {
		if r.startN < minS {
			minS = r.startN
		}
		if r.startN > maxS {
			maxS = r.startN
		}
	}
	dst = appendU32(dst, uint32(len(rows)))
	dst = appendI64(dst, minS)
	dst = appendI64(dst, maxS)
	dst = appendU16(dst, uint16(len(hwNew)))
	for _, hw := range hwNew {
		dst = appendU16(dst, uint16(len(hw)))
		dst = append(dst, hw...)
	}
	dst = appendU32(dst, uint32(len(detNew)))
	for _, det := range detNew {
		dst = appendU16(dst, uint16(len(det)))
		dst = append(dst, det...)
	}
	for _, r := range rows {
		dst = appendI64(dst, r.startN)
	}
	for _, r := range rows {
		dst = appendI64(dst, r.endD)
	}
	for _, r := range rows {
		dst = appendU32(dst, r.sys)
	}
	for _, r := range rows {
		dst = appendU32(dst, r.nod)
	}
	for _, r := range rows {
		dst = appendU16(dst, r.hw)
	}
	for _, r := range rows {
		dst = append(dst, r.wl)
	}
	for _, r := range rows {
		dst = append(dst, r.cause)
	}
	for _, r := range rows {
		dst = appendU32(dst, r.det)
	}
	payload := dst[base+frameSize:]
	if len(payload) > maxFramePayload {
		return dst, 0, 0, fmt.Errorf("tracefmt: frame payload %d bytes exceeds the %d cap (lower BlockRecords)",
			len(payload), maxFramePayload)
	}
	hdr := dst[base : base+frameSize]
	hdr[0] = frameBlock
	le.PutUint32(hdr[1:], uint32(len(payload)))
	le.PutUint32(hdr[5:], crc32Checksum(payload))
	return dst, minS, maxS, nil
}

// submitBlock hands the block under construction to the encode pool.
// With the pool full it first writes the oldest pending frame and
// reuses that job's buffers, so the caller never copies rows.
func (w *Writer) submitBlock() error {
	var j encJob
	if w.pool.Len() == w.pool.Depth() {
		var err error
		if j, err = w.writeNext(); err != nil {
			return err
		}
	}
	j.rows, w.rows = w.rows, j.rows[:0]
	j.hwNew, w.hwNew = w.hwNew, j.hwNew[:0]
	j.detNew, w.detNew = w.detNew, j.detNew[:0]
	w.total += uint64(len(j.rows))
	w.pool.Submit(j)
	return nil
}

// writeNext waits for the oldest pending block, writes its frame and
// indexes it, and returns the job for reuse.
func (w *Writer) writeNext() (encJob, error) {
	j := w.pool.Next()
	if j.err != nil {
		return j, w.poison(j.err)
	}
	info := BlockInfo{
		Offset:   w.offset,
		Records:  len(j.rows),
		MinStart: j.minS,
		MaxStart: j.maxS,
	}
	if err := w.writeRaw(j.frame); err != nil {
		return j, fmt.Errorf("tracefmt: write frame: %w", err)
	}
	w.index = append(w.index, info)
	return j, nil
}

// writeFrame frames a payload with its kind, length and CRC-32C (footer
// path; blocks go through appendBlockFrame).
func (w *Writer) writeFrame(kind byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return w.poison(fmt.Errorf("tracefmt: frame payload %d bytes exceeds the %d cap (lower BlockRecords)",
			len(payload), maxFramePayload))
	}
	var hdr [frameSize]byte
	hdr[0] = kind
	le.PutUint32(hdr[1:], uint32(len(payload)))
	le.PutUint32(hdr[5:], crc32Checksum(payload))
	if err := w.writeRaw(hdr[:]); err != nil {
		return fmt.Errorf("tracefmt: write frame: %w", err)
	}
	if err := w.writeRaw(payload); err != nil {
		return fmt.Errorf("tracefmt: write frame: %w", err)
	}
	return nil
}

func crc32Checksum(p []byte) uint32 { return crc32Update(0, p) }

// Close flushes the final partial block, then writes the footer (total
// count, block index, complete dictionaries) and the trailer that lets
// a random-access reader locate the footer from the end of the file.
// Close does not close the underlying writer. Close (successful or not)
// also stops the encode pool; it is the only way to release those
// goroutines.
func (w *Writer) Close() error {
	defer w.pool.Close()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	if len(w.rows) > 0 {
		if err := w.submitBlock(); err != nil {
			return err
		}
	}
	for w.pool.Len() > 0 {
		if _, err := w.writeNext(); err != nil {
			return err
		}
	}
	footerOffset := w.offset
	var p []byte
	p = appendU64(p, w.total)
	p = appendU32(p, uint32(len(w.index)))
	for _, b := range w.index {
		p = appendU64(p, uint64(b.Offset))
		p = appendU32(p, uint32(b.Records))
		p = appendI64(p, b.MinStart)
		p = appendI64(p, b.MaxStart)
	}
	p = appendU16(p, uint16(len(w.hwAll)))
	for _, hw := range w.hwAll {
		p = appendU16(p, uint16(len(hw)))
		p = append(p, hw...)
	}
	p = appendU32(p, uint32(len(w.detAll)))
	for _, det := range w.detAll {
		p = appendU16(p, uint16(len(det)))
		p = append(p, det...)
	}
	if err := w.writeFrame(frameFooter, p); err != nil {
		return err
	}
	var tr [trailerSize]byte
	le.PutUint64(tr[:], uint64(footerOffset))
	copy(tr[8:], trailerMagic)
	if err := w.writeRaw(tr[:]); err != nil {
		return fmt.Errorf("tracefmt: write trailer: %w", err)
	}
	w.closed = true
	return nil
}
