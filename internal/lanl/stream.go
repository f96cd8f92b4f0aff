package lanl

import (
	"errors"

	"hpcfail/internal/failures"
)

// This file is the streaming face of the generator: records flow to the
// consumer as they are produced, so writing a trace to CSV or feeding
// engine.AnalyzeStream never materializes the full dataset. Both entry
// points run on systemBlocks, the pool Generate uses, with at most
// Workers system blocks in flight (Workers+1 for Stream, see
// RecordStream): generation runs ahead while the consumer drains, and
// peak memory is bounded by the largest few systems, independent of
// RateScale or trace length.
//
// Records arrive grouped by system in catalog order, each group sorted
// by start time — the same order lanlgen's stream mode documents. A
// globally time-sorted stream would require buffering every system
// (the first records of the fleet interleave across all 22 machines),
// which is exactly the materialization streaming exists to avoid;
// consumers that need global order load the CSV through
// failures.ReadCSV, which re-sorts, and the per-system shards of
// engine.AnalyzeStream are insensitive to cross-system order.

// errStreamClosed aborts the producer when a RecordStream consumer
// closes early; it never escapes to callers.
var errStreamClosed = errors.New("lanl: record stream closed")

// GenerateStream produces the configured trace record by record, calling
// emit for each one. Records within a system are sorted by start time
// and systems arrive in catalog order; the concatenation of the emitted
// sequence therefore rebuilds Generate()'s dataset exactly (the property
// tests assert this record for record). emit runs on the caller's
// goroutine; returning a non-nil error stops generation and propagates
// the error.
func (g *Generator) GenerateStream(emit func(failures.Record) error) error {
	return g.systemBlocks(g.cfg.Workers, func(block []failures.Record) error {
		for _, r := range block {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// A RecordStream adapts the generator to the pull-based
// failures.RecordSource shape engine.AnalyzeStream consumes: Scan/Record
// iterate the same record sequence GenerateStream emits, with generation
// running ahead on a background goroutine. The producer hands over whole
// system blocks, so at most Workers+1 blocks are alive at once: Workers
// behind the pool's tokens plus the one Scan is walking. Close releases
// the producer if the consumer stops early; a fully drained stream
// cleans up itself.
type RecordStream struct {
	blocks chan []failures.Record
	errc   chan error
	stop   chan struct{}
	rest   []failures.Record // unread records of the current block
	cur    failures.Record
	err    error
	closed bool
}

// Stream starts generation and returns the record iterator.
func (g *Generator) Stream() *RecordStream {
	s := &RecordStream{
		blocks: make(chan []failures.Record),
		errc:   make(chan error, 1),
		stop:   make(chan struct{}),
	}
	go func() {
		err := g.systemBlocks(g.cfg.Workers, func(block []failures.Record) error {
			select {
			case s.blocks <- block:
				return nil
			case <-s.stop:
				return errStreamClosed
			}
		})
		if err != nil && !errors.Is(err, errStreamClosed) {
			s.errc <- err
		}
		close(s.blocks)
	}()
	return s
}

// Scan advances to the next record, returning false at the end of the
// trace or on error.
func (s *RecordStream) Scan() bool {
	if s.err != nil || s.closed {
		return false
	}
	for len(s.rest) == 0 {
		block, ok := <-s.blocks
		if !ok {
			select {
			case err := <-s.errc:
				s.err = err
			default:
			}
			return false
		}
		s.rest = block
	}
	s.cur, s.rest = s.rest[0], s.rest[1:]
	return true
}

// Record returns the record Scan advanced to.
func (s *RecordStream) Record() failures.Record { return s.cur }

// Err returns the first generation error, if any.
func (s *RecordStream) Err() error { return s.err }

// Close stops the producer without draining the remaining records. It is
// safe to call multiple times and after exhaustion.
func (s *RecordStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.rest = nil
	close(s.stop)
	// Unblock a producer mid-send and let it observe stop.
	for range s.blocks {
	}
}
