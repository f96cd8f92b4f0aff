package tracefmt

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"hpcfail/internal/failures"
)

// OpenInput picks the reader for a trace that may be in either format:
// it sniffs the binary-trace magic by peeking at f's first bytes
// through a bufio.Reader, never seeking, so f may be a pipe. A binary
// trace comes back as a Scanner — File.ScanParallel with workers over
// the footer index when f is a regular file, NewScanner over the
// stream otherwise; the caller closes it. Anything else comes back as
// a nil Scanner and a reader positioned at f's first byte, for the CSV
// reader.
func OpenInput(f *os.File, workers int) (*Scanner, io.Reader, error) {
	br := bufio.NewReader(f)
	binary, err := sniffMagic(br)
	if err != nil || !binary {
		return nil, br, err
	}
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
		tf, err := NewFile(f, st.Size())
		if err != nil {
			return nil, nil, err
		}
		return tf.ScanParallel(ScanOptions{}, workers), nil, nil
	}
	s, err := NewScanner(br, ScanOptions{})
	return s, nil, err
}

// sniffMagic reports whether br's input begins with the binary-trace
// magic, without consuming it. An input shorter than the magic is not
// a trace.
func sniffMagic(br *bufio.Reader) (bool, error) {
	prefix, err := br.Peek(len(magic))
	if err != nil && err != io.EOF {
		return false, err
	}
	return string(prefix) == magic, nil
}

// ReadDataset drains a binary-trace Scanner into a Dataset — the binary
// counterpart of failures.ReadCSV, for the in-memory analyses. Like
// ReadCSV it sorts on load, so a trace written in any record order
// loads into the identical dataset. Each batch is validated and copied
// into a part of exactly its size (the Scanner reuses its buffers), and
// failures.SortedByStart gathers the parts once, so the load holds the
// records twice at its peak instead of growing one slice by append.
// Consume the Scanner directly instead when the trace may not fit in
// memory.
func ReadDataset(s *Scanner) (*failures.Dataset, error) {
	var parts [][]failures.Record
	n := 0
	for {
		b, err := s.ScanBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return failures.NewDatasetSorted(failures.SortedByStart(parts))
		}
		for i, r := range b {
			if err := r.Validate(); err != nil {
				return nil, fmt.Errorf("dataset record %d: %w", n+i, err)
			}
		}
		parts = append(parts, append([]failures.Record(nil), b...))
		n += len(b)
	}
}
