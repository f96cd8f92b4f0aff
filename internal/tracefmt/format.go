// Package tracefmt is the columnar binary failure-trace format that
// replaces CSV on the generate→analyze hot path at exascale trace sizes
// (CSV stays as the interchange format; see DESIGN.md). A trace file is a
// short header followed by CRC-framed blocks of a few thousand records
// each, a footer indexing every block, and a fixed-size trailer locating
// the footer from the end of the file.
//
// Within a block the records are stored as columns, not rows: all start
// times, then all end offsets, then the label columns. Times are int64
// epoch-nanoseconds in fixed-width little-endian words, so a scanner
// decodes a record with eight bounds-checked loads straight out of the
// block buffer — no parsing, no per-record allocation — and the layout
// reads equally well through an mmap'd byte slice (every column is a
// plain LE integer array at a computed offset; nothing is
// variable-width past the block's dictionary section). String labels
// (hardware type, failure detail) are dictionary-encoded: each block
// carries only the entries first seen in it, the footer repeats the
// complete tables, and records store fixed-width dictionary indexes.
//
// Every block header records the minimum and maximum start time of its
// records, duplicated in the footer index, so a time-range scan skips
// whole blocks — via the footer without even reading them (File), or by
// decoding nothing but the 20-byte block prefix on a pure stream
// (NewScanner).
//
// Framing is defensive: each frame carries the CRC-32C of its payload,
// verified before any field is trusted, so torn writes and bit rot
// surface as ErrChecksum instead of silently corrupt records.
//
// Version compatibility: the header carries a format version. Readers
// accept exactly the versions they know (currently only Version); a
// bumped version is a hard error, not a best-effort parse, because a
// binary hot-path format must never guess. Producers needing forward
// compatibility should fall back to CSV, which every version of this
// repository reads.
package tracefmt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Version is the trace-format version this package reads and writes.
const Version = 1

const (
	// magic opens every trace file, followed by the little-endian
	// uint16 format version.
	magic = "HPCTRC"
	// trailerMagic closes the file, preceded by the little-endian
	// uint64 offset of the footer frame.
	trailerMagic = "HPCE"

	headerSize  = len(magic) + 2 // magic + version
	frameSize   = 1 + 4 + 4      // kind + payload length + CRC-32C
	trailerSize = 8 + 4          // footer offset + trailer magic

	frameBlock  = 1
	frameFooter = 2

	// blockPrefixSize is the fixed head of a block payload: record
	// count, min start, max start.
	blockPrefixSize = 4 + 8 + 8

	// footerEntrySize is one footer index entry: offset, record count,
	// min start, max start.
	footerEntrySize = 8 + 4 + 8 + 8

	// recordWidth is the total column width of one record:
	// start i64 + end-delta i64 + system i32 + node i32 +
	// hw u16 + workload u8 + cause u8 + detail u32.
	recordWidth = 8 + 8 + 4 + 4 + 2 + 1 + 1 + 4

	// maxFramePayload caps a frame before any of it is buffered, so a
	// corrupt or hostile length field cannot make a reader allocate
	// unboundedly.
	maxFramePayload = 1 << 30

	// DefaultBlockRecords is the writer's records-per-block default:
	// large enough that frame and dictionary overhead vanish, small
	// enough that a block stays cache-resident while it is decoded.
	DefaultBlockRecords = 8192

	// maxHWDict and maxDetailDict bound the dictionaries; indexes are
	// stored as u16 and u32 respectively.
	maxHWDict     = 1 << 16
	maxDetailDict = 1 << 31
	// maxLabelLen bounds one dictionary string.
	maxLabelLen = 1 << 16
)

// Sentinel errors; wrap details with %w around these.
var (
	// ErrBadMagic means the input does not start with a trace header
	// (or ends without the trailer): not a trace file.
	ErrBadMagic = errors.New("tracefmt: not a trace file")
	// ErrVersion means the file's format version is not supported.
	ErrVersion = errors.New("tracefmt: unsupported format version")
	// ErrChecksum means a frame's payload does not match its CRC-32C.
	ErrChecksum = errors.New("tracefmt: frame checksum mismatch")
	// ErrTruncated means the input ended inside a frame or before the
	// footer.
	ErrTruncated = errors.New("tracefmt: truncated trace file")
	// ErrFormat means a structurally invalid payload: impossible
	// lengths, out-of-range dictionary indexes, inconsistent counts.
	ErrFormat = errors.New("tracefmt: malformed trace file")
)

// castagnoli is the CRC-32C table shared by writer and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// le is the byte order of every fixed-width field in the format.
var le = binary.LittleEndian

// BlockInfo describes one block as recorded in the footer index.
type BlockInfo struct {
	// Offset is the file offset of the block's frame header.
	Offset int64
	// Records is the number of records in the block.
	Records int
	// MinStart and MaxStart bound the block's record start times,
	// in epoch nanoseconds.
	MinStart, MaxStart int64
}

// overlaps reports whether the block can contain a start time in the
// inclusive window [fromN, toInc]. The caller passes
// math.MinInt64/MaxInt64 for open ends; scanBounds produces the pair
// from a ScanOptions. Inclusive bounds (rather than a half-open toN)
// keep a fully open window able to match math.MaxInt64 itself.
func (b BlockInfo) overlaps(fromN, toInc int64) bool {
	return b.MaxStart >= fromN && b.MinStart <= toInc
}

// appendUvarint-style helpers are deliberately absent: every field is
// fixed-width so that offsets are computable without scanning.

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }
