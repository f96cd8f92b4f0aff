package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"hpcfail/internal/binx"
	"hpcfail/internal/failures"
)

// Write-ahead log. Each tenant owns one append-only file of CRC-framed
// batches; a batch is written (and optionally synced) before it is folded
// into the tenant's incremental analysis, so any state the analysis has
// ever reached can be rebuilt by restoring the last snapshot and replaying
// the WAL suffix behind it.
//
// Layout:
//
//	magic "HFWAL01\n"                                  (8 bytes)
//	frame*: u32le payload length | u32le CRC-32 (IEEE) | payload
//	payload: len-prefixed ingest ID | uvarint record count | record*
//	record:  varint system | varint node | len-prefixed hw |
//	         uvarint workload | uvarint cause | len-prefixed detail |
//	         varint start unix sec | uvarint start nsec |
//	         varint end unix sec   | uvarint end nsec
//
// A crash can leave a torn final frame — a short header, a short payload,
// or a payload whose CRC disagrees. Replay treats the first such frame as
// the end of the log and truncates the file there; everything before it is
// intact by construction (frames are written with a single Write call and
// the file only ever grows). A CRC-valid payload that fails to decode is
// not a torn tail but a codec bug or version skew, and fails the restore
// loudly instead.
var walMagic = [8]byte{'H', 'F', 'W', 'A', 'L', '0', '1', '\n'}

// ErrWAL wraps non-torn-tail WAL failures (bad magic, undecodable
// CRC-valid payload), so callers can distinguish them from plain I/O
// errors with errors.Is.
var ErrWAL = errors.New("serve: corrupt WAL")

// maxWALFrame bounds a frame's payload. A length field beyond it is torn-
// tail garbage, not a real frame: the ingest path caps batches far below
// this, so replay truncates rather than attempting a gigabyte allocation.
const maxWALFrame = 1 << 30

// wal is one tenant's open write-ahead log. It is not internally
// synchronized: the tenant's folder goroutine is the only writer, and the
// snapshot path reads offset under the tenant's fold lock.
type wal struct {
	f      *os.File
	offset int64 // current end of file = offset of the next frame
	sync   bool
}

// createWAL opens (or creates) the log at path, verifying the magic of an
// existing file and writing it into a new one.
func createWAL(path string, syncEach bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{f: f, sync: syncEach}
	if st.Size() == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, err
		}
		w.offset = int64(len(walMagic))
		return w, nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != walMagic {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad magic", ErrWAL, path)
	}
	w.offset = st.Size()
	return w, nil
}

func (w *wal) close() error { return w.f.Close() }

// appendBatch frames and appends one ingested batch, advancing the
// offset. The frame goes out in a single Write so a crash can tear only
// the final frame, never interleave two.
func (w *wal) appendBatch(ingestID string, recs []failures.Record) error {
	payload := appendWALPayload(nil, ingestID, recs)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, err := w.f.WriteAt(frame, w.offset); err != nil {
		return err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.offset += int64(len(frame))
	return nil
}

func appendWALPayload(buf []byte, ingestID string, recs []failures.Record) []byte {
	buf = binx.AppendString(buf, ingestID)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendVarint(buf, int64(r.System))
		buf = binary.AppendVarint(buf, int64(r.Node))
		buf = binx.AppendString(buf, string(r.HW))
		buf = binary.AppendUvarint(buf, uint64(r.Workload))
		buf = binary.AppendUvarint(buf, uint64(r.Cause))
		buf = binx.AppendString(buf, r.Detail)
		buf = binx.AppendTime(buf, r.Start)
		buf = binx.AppendTime(buf, r.End)
	}
	return buf
}

// walRecordMinSize is the smallest encoding of one WAL record: six
// one-byte fields and two two-byte times.
const walRecordMinSize = 10

func decodeWALPayload(payload []byte) (string, []failures.Record, error) {
	r := binx.NewReader(payload, ErrWAL)
	id := r.Str()
	recs := make([]failures.Record, r.Count(walRecordMinSize))
	for i := range recs {
		recs[i] = failures.Record{
			System:   int(r.Varint()),
			Node:     int(r.Varint()),
			HW:       failures.HWType(r.Str()),
			Workload: failures.Workload(r.Uvarint()),
			Cause:    failures.RootCause(r.Uvarint()),
			Detail:   r.Str(),
			Start:    r.Time(),
			End:      r.Time(),
		}
	}
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return id, recs, nil
}

// replay feeds every complete frame at or beyond fromOffset to fn, in
// file order, then truncates any torn tail so the next append starts at a
// clean frame boundary. A fromOffset beyond the file's size means the
// file lost frames the snapshot had already folded; the snapshot
// supersedes them, so there is nothing to replay and appends resume at
// the current end.
func (w *wal) replay(fromOffset int64, fn func(ingestID string, recs []failures.Record) error) error {
	if fromOffset < int64(len(walMagic)) {
		return fmt.Errorf("%w: replay offset %d inside magic", ErrWAL, fromOffset)
	}
	if fromOffset >= w.offset {
		return nil
	}
	pos := fromOffset
	var hdr [8]byte
	for pos < w.offset {
		if _, err := io.ReadFull(io.NewSectionReader(w.f, pos, 8), hdr[:]); err != nil {
			break // torn header
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxWALFrame || pos+8+length > w.offset {
			break // torn or garbage length
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(io.NewSectionReader(w.f, pos+8, length), payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or corrupted frame
		}
		id, recs, err := decodeWALPayload(payload)
		if err != nil {
			return fmt.Errorf("frame at offset %d: %w", pos, err)
		}
		if err := fn(id, recs); err != nil {
			return err
		}
		pos += 8 + length
	}
	if pos < w.offset {
		if err := w.f.Truncate(pos); err != nil {
			return err
		}
		w.offset = pos
	}
	return nil
}
