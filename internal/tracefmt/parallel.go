package tracefmt

import (
	"runtime"

	"hpcfail/internal/failures"
)

// decBatch carries one decoded block from a worker to the consumer.
// Batches arrive on the out channel in block order; ready is closed
// once recs and err are final, so the consumer can wait for a specific
// block while later blocks are still being decoded.
type decBatch struct {
	info  BlockInfo
	recs  []failures.Record
	err   error
	ready chan struct{}
}

// ScanParallel scans the trace with a pool of block-decode workers over
// the footer index: a dispatcher walks the index in order, skipping
// blocks the time window cannot touch (they are never read), and
// publishes each remaining block to the consumer before handing it to
// the pool, so blocks re-emit strictly in index order no matter which
// worker finishes first. workers <= 0 uses GOMAXPROCS. The returned
// Scanner yields exactly the records of f.Scan(opts), in the same
// order, so analysis results are byte-identical at any worker count.
//
// Record buffers are pooled: a fixed set of slices cycles between the
// workers and the consumer, so steady-state decoding allocates only
// when a block outgrows its reused buffer. Close releases the worker
// goroutines early; letting the scan run to its end (or first error)
// releases them too.
func (f *File) ScanParallel(opts ScanOptions, workers int) *Scanner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(f.blocks); n > 0 && workers > n {
		workers = n
	}
	fromN, toInc := scanBounds(opts)
	inflight := workers + 2
	out := make(chan *decBatch, inflight)          // dispatcher → consumer, block order
	work := make(chan *decBatch, inflight)         // dispatcher → workers
	free := make(chan []failures.Record, inflight) // recycled record buffers
	stop := make(chan struct{})
	for i := 0; i < inflight; i++ {
		free <- nil
	}

	// Dispatcher: the free channel is both the buffer pool and the
	// backpressure bound — at most inflight blocks are decoded ahead
	// of the consumer. Because order-publication (out) and decode
	// hand-off (work) both have capacity inflight and every batch
	// holds a free token, neither send can block; the dispatcher only
	// ever waits on free or stop.
	go func() {
		defer close(work)
		defer close(out)
		for _, b := range f.blocks {
			if !b.overlaps(fromN, toInc) {
				continue
			}
			var buf []failures.Record
			select {
			case buf = <-free:
			case <-stop:
				return
			}
			d := &decBatch{info: b, recs: buf, ready: make(chan struct{})}
			out <- d
			work <- d
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			var frameBuf []byte
			for d := range work {
				d.recs, frameBuf, d.err = f.decodeBlockAt(d.info, frameBuf, fromN, toInc, d.recs[:0])
				close(d.ready)
			}
		}()
	}

	recycle := func(buf []failures.Record) {
		select {
		case free <- buf[:0]:
		default:
		}
	}
	// shutdown stops the dispatcher and drains every in-flight batch,
	// so no worker is left blocked on a channel. Only the consumer
	// calls it; idempotent.
	stopped := false
	shutdown := func() {
		if stopped {
			return
		}
		stopped = true
		close(stop)
		for d := range out {
			<-d.ready
		}
	}
	next := func(buf []failures.Record) ([]failures.Record, error) {
		// A non-nil buf is a drained block, which holds a free token.
		if buf != nil {
			recycle(buf)
		}
		for d := range out {
			<-d.ready
			if d.err != nil {
				recycle(d.recs)
				shutdown()
				return nil, d.err
			}
			if len(d.recs) > 0 {
				return d.recs, nil
			}
			recycle(d.recs)
		}
		return nil, nil
	}
	return &Scanner{next: next, stop: shutdown}
}
