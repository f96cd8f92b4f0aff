package failures

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
)

// Scanner reads failure records from the repository's CSV format one at a
// time, without materializing a Dataset — the bounded-memory ingest path
// for traces larger than RAM. It shares the row parser and validation
// with ReadCSV, and both the strict and lenient modes of ReadCSVWith:
// strict stops at the first malformed row, lenient skips it and records a
// RowError carrying the row's true input line (multi-line quoted fields
// included, via csv.Reader.FieldPos).
//
// Records are yielded in file order; unlike NewDataset, the Scanner does
// not sort. Consumers that need time order (e.g. streaming interarrival
// accumulators) should note that WriteCSV emits datasets in start-time
// order, so round-tripped traces are already sorted.
//
// Usage:
//
//	sc, err := NewScanner(r, ReadCSVOptions{SkipMalformed: true})
//	for sc.Scan() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	cr      *csv.Reader
	lenient bool
	ctx     context.Context

	rec     Record
	rowErrs []RowError
	err     error
	done    bool
}

// NewScanner builds a Scanner over r, reading and checking the header
// immediately. Structural failures — an unreadable or mismatched header —
// surface here, in both modes.
func NewScanner(r io.Reader, opts ReadCSVOptions) (*Scanner, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("read csv: column %d is %q, want %q", i, header[i], want)
		}
	}
	return &Scanner{cr: cr, lenient: opts.SkipMalformed}, nil
}

// NewScannerContext is NewScanner with cancellation: once ctx is done,
// the next Scan stops and Err reports ctx.Err() (use errors.Is against
// context.Canceled / DeadlineExceeded). The check runs before every row,
// so a dropped ingest connection or a server shutdown aborts a scan
// mid-stream promptly instead of draining the reader. Records already
// yielded are unaffected, so accumulators folded from a cancelled scan
// remain consistent.
func NewScannerContext(ctx context.Context, r io.Reader, opts ReadCSVOptions) (*Scanner, error) {
	sc, err := NewScanner(r, opts)
	if err != nil {
		return nil, err
	}
	sc.ctx = ctx
	return sc, nil
}

// Scan advances to the next well-formed record, reporting false at end of
// input or on a fatal error (see Err). In lenient mode malformed rows are
// skipped and recorded as RowErrors rather than stopping the scan.
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	for {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				s.err = err
				s.done = true
				return false
			}
		}
		row, err := s.cr.Read()
		if err == io.EOF {
			s.done = true
			return false
		}
		if err != nil {
			var perr *csv.ParseError
			if s.lenient && errors.As(err, &perr) {
				// Framing errors report their own line; the reader
				// resumes on the next row.
				s.rowErrs = append(s.rowErrs, RowError{Line: perr.Line, Err: err})
				continue
			}
			s.err = fmt.Errorf("read csv: %w", err)
			s.done = true
			return false
		}
		// The true input line of this row, independent of how many
		// newlines earlier quoted fields contained.
		line, _ := s.cr.FieldPos(0)
		rec, err := parseRow(row)
		if err == nil {
			err = rec.Validate()
		}
		if err != nil {
			if s.lenient {
				s.rowErrs = append(s.rowErrs, RowError{Line: line, Err: err})
				continue
			}
			s.err = fmt.Errorf("read csv line %d: %w", line, err)
			s.done = true
			return false
		}
		s.rec = rec
		return true
	}
}

// Record returns the record produced by the last successful Scan.
func (s *Scanner) Record() Record { return s.rec }

// RowErrors returns the malformed rows skipped so far in lenient mode,
// each with the true input line of the offending row.
func (s *Scanner) RowErrors() []RowError { return s.rowErrs }

// Err returns the fatal error that stopped the scan, if any. io.EOF is
// not an error.
func (s *Scanner) Err() error { return s.err }
