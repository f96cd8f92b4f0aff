package lanl

import (
	"hpcfail/internal/failures"
)

// This file is the streaming face of the generator: records flow to the
// consumer as they are produced, so writing a trace to CSV or feeding
// engine.AnalyzeStream never materializes the full dataset. Stream
// consumes systemBlocks, the iterator Generate uses, with at most
// Workers+1 system blocks pending in its pool: generation runs ahead
// while the consumer drains. Peak memory follows the largest few
// systems, so it still grows with RateScale.
//
// Records arrive grouped by system in catalog order, each group sorted
// by start time — the same order lanlgen's stream mode documents. A
// globally time-sorted stream would require buffering every system
// (the first records of the fleet interleave across all 22 machines),
// which is exactly the materialization streaming exists to avoid;
// consumers that need global order load the CSV through
// failures.ReadCSV, which re-sorts, and the per-system shards of
// engine.AnalyzeStream are insensitive to cross-system order.

// A RecordStream adapts the generator to the pull-based
// failures.RecordSource shape engine.AnalyzeStream consumes. Its
// sequence, loaded into a dataset, rebuilds Generate()'s exactly (the
// property tests assert this record for record). Scan pulls
// whole system blocks from the generator pool on the caller's
// goroutine while the pool's workers generate the next ones, so at most
// Workers+2 blocks are alive at once: Workers+1 pending in the pool
// plus the one Scan is walking. Close stops the pool if the consumer
// stops early; a fully drained stream stops it itself.
type RecordStream struct {
	blocks *systemBlocks
	block  recordBlock // the current block; block.recs holds its unread records
	cur    failures.Record
	err    error
	closed bool
}

// Stream validates the configuration and returns the record iterator;
// a configuration error surfaces from the first Scan, through Err.
func (g *Generator) Stream() *RecordStream {
	it, err := g.systemBlocks(0)
	return &RecordStream{blocks: it, err: err}
}

// Scan advances to the next record, returning false at the end of the
// trace or on error.
func (s *RecordStream) Scan() bool {
	if s.err != nil || s.closed {
		return false
	}
	for len(s.block.recs) == 0 {
		// A drained block can still point at its array: drop it so the
		// block is freed while scan waits for the next one.
		s.block = recordBlock{}
		if !s.blocks.scan() {
			s.err = s.blocks.err
			return false
		}
		s.block = s.blocks.block
	}
	s.block.fill(&s.cur, &s.block.recs[0])
	s.block.recs = s.block.recs[1:]
	return true
}

// Record returns the record Scan advanced to.
func (s *RecordStream) Record() failures.Record { return s.cur }

// Err returns the first generation error, if any.
func (s *RecordStream) Err() error { return s.err }

// Close stops the generator pool without draining the remaining
// records, waiting for the systems already being generated. It is safe
// to call multiple times and after exhaustion.
func (s *RecordStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.block = recordBlock{}
	if s.blocks != nil {
		s.blocks.close()
	}
}
