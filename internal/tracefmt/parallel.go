package tracefmt

import (
	"runtime"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
)

// decJob is one indexed block on its way through the decode pool: the
// block going in, its in-window records or its error coming out.
type decJob struct {
	info BlockInfo
	recs []failures.Record
	err  error
}

// ScanParallel scans the trace with a pool of block-decode workers over
// the footer index. Each call for the next block first tops the pool up
// with the following in-window blocks, in index order, skipping blocks
// the time window cannot touch (they are never read), then takes the
// oldest back, so blocks re-emit strictly in index order no matter
// which worker finishes first. workers <= 0 uses GOMAXPROCS. Every
// worker count yields exactly the same records in the same order, so
// analysis results are byte-identical at any worker count.
//
// Buffers are reused: each worker keeps one frame buffer, and a fixed
// set of workers+1 record buffers, the one the consumer holds
// included, cycles between the pool and the consumer: while the
// consumer works on its block, every worker can decode the next. A
// record buffer is allocated at its block's indexed record count rather
// than grown by append, so a scan allocates once per buffer, again only
// for a block longer than the buffer it is given, and lets every buffer
// go at the end of input. Close releases the worker goroutines early; letting the
// scan run to its end (or first error) releases them too.
func (f *File) ScanParallel(opts ScanOptions, workers int) *Scanner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(f.blocks); n > 0 && workers > n {
		workers = n
	}
	fromN, toInc := scanBounds(opts)
	frames := make([][]byte, workers)
	pool := par.NewOrdered(workers, workers+1, func(w int, d decJob) decJob {
		d.recs, frames[w], d.err = f.decodeBlockAt(d.info, frames[w], fromN, toInc, d.recs[:0])
		return d
	})
	var (
		i    int                 // next index entry to consider
		free [][]failures.Record // record buffers back from the consumer
		held []failures.Record   // the block the consumer holds
	)
	next := func() ([]failures.Record, error) {
		if held != nil {
			free, held = append(free, held), nil
		}
		for {
			for pool.Len() < pool.Depth() && i < len(f.blocks) {
				b := f.blocks[i]
				i++
				if !b.overlaps(fromN, toInc) {
					continue
				}
				d := decJob{info: b}
				if k := len(free) - 1; k >= 0 {
					d.recs, free = free[k], free[:k]
				}
				if cap(d.recs) < b.Records {
					d.recs = make([]failures.Record, 0, b.Records)
				}
				pool.Submit(d)
			}
			if pool.Len() == 0 {
				pool.Close()
				free, frames = nil, nil
				return nil, nil
			}
			d := pool.Next()
			if d.err != nil {
				pool.Close()
				return nil, d.err
			}
			if len(d.recs) > 0 {
				held = d.recs
				return held, nil
			}
			free = append(free, d.recs)
		}
	}
	return &Scanner{next: next, stop: pool.Close}
}
