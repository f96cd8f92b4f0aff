// Package par holds the repository's two worker pools. Each runs an
// indexed fan-out to completion; Ordered streams jobs through a fixed
// set of workers and hands them back in submission order. Both start
// work in ascending order, so a caller that pre-sorts its jobs chooses
// the dispatch order, and neither decides what a job computes: output
// assembled from position-indexed results or from Ordered's submission
// order is the same at every worker count.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on up to workers goroutines,
// the caller's included, and returns once every started call has
// returned. Indexes start in ascending order from a shared counter, so
// index order is dispatch order. Once ctx is done no further index
// starts; the caller checks ctx.Err() to tell a cut-short run from a
// complete one. workers < 1 means one: fn then runs on the caller's
// goroutine alone.
func Each(ctx context.Context, n, workers int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	run := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// Ordered runs fn over submitted jobs on a fixed set of worker
// goroutines and returns the results in submission order. It holds at
// most Depth jobs, counted from Submit to the Next that returns them,
// so a caller bounds its memory by topping submissions up to Depth
// itself; there is no dispatcher or sequencer goroutine. One goroutine
// owns Submit, Next, Len and Close.
//
// Jobs are values: fn receives the submitted job and returns the
// finished one, which Next hands back. A job that carries buffers can
// therefore be recycled by the caller into a later Submit.
type Ordered[T any] struct {
	slots []slot[T] // ring of pending jobs, oldest at head
	head  int
	n     int
	// work carries slot indexes to the workers in submission order. It
	// is buffered to Depth, the most indexes it can ever hold, so
	// Submit never blocks.
	work   chan int
	wg     sync.WaitGroup
	closed bool
}

type slot[T any] struct {
	job T
	// done receives one token when fn has finished job; one-slot
	// buffered so a worker never waits for the caller.
	done chan struct{}
}

// NewOrdered starts workers goroutines running fn and returns a pool
// that holds up to depth jobs. workers is capped at depth, since more
// could never all be busy; workers and depth below one mean one. fn's
// first argument is the index, in [0, workers), of the worker running
// it, so callers can keep per-worker scratch space. Close stops the
// workers.
func NewOrdered[T any](workers, depth int, fn func(w int, job T) T) *Ordered[T] {
	depth = max(depth, 1)
	o := &Ordered[T]{slots: make([]slot[T], depth), work: make(chan int, depth)}
	for i := range o.slots {
		o.slots[i].done = make(chan struct{}, 1)
	}
	workers = max(1, min(workers, depth))
	o.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer o.wg.Done()
			for i := range o.work {
				s := &o.slots[i]
				s.job = fn(w, s.job)
				s.done <- struct{}{}
			}
		}()
	}
	return o
}

// Submit queues job behind every pending one. The pool must hold fewer
// than Depth jobs and must not be closed.
func (o *Ordered[T]) Submit(job T) {
	if o.n == len(o.slots) {
		panic("par: Submit on a full Ordered")
	}
	i := (o.head + o.n) % len(o.slots)
	o.slots[i].job = job
	o.n++
	o.work <- i
}

// Next waits for the oldest pending job and returns it as fn finished
// it. The pool must hold at least one job.
func (o *Ordered[T]) Next() T {
	if o.n == 0 {
		panic("par: Next on an empty Ordered")
	}
	s := &o.slots[o.head]
	<-s.done
	job := s.job
	var zero T
	s.job = zero // the pool keeps no reference to a returned job
	o.head = (o.head + 1) % len(o.slots)
	o.n--
	return job
}

// Len returns the number of pending jobs: submitted and not yet
// returned by Next.
func (o *Ordered[T]) Len() int { return o.n }

// Depth returns the most jobs the pool holds at once.
func (o *Ordered[T]) Depth() int { return len(o.slots) }

// Close lets the workers finish the pending jobs, discards them, and
// returns once every worker has exited. It is safe to call more than
// once.
func (o *Ordered[T]) Close() {
	if o.closed {
		return
	}
	o.closed = true
	close(o.work)
	o.wg.Wait()
	clear(o.slots)
	o.n = 0
}
