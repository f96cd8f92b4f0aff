package par

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {3, 8}, {1000, 3}, {50, 0}, {50, -2}, {7, 1},
	} {
		t.Run(fmt.Sprintf("n=%d/workers=%d", tc.n, tc.workers), func(t *testing.T) {
			hits := make([]atomic.Int32, tc.n)
			Each(context.Background(), tc.n, tc.workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
		})
	}
}

// TestEachStopsAfterCancel: once ctx is done no index starts. A worker
// that passed its check just before the cancel may still claim and start
// one index, so at most workers indexes start after the cancelling call
// returns. The bound counts from that moment, not from the cancelling
// index: before cancel runs, the other workers may start any number of
// indexes while the cancelling one is descheduled. With a single worker
// the cut is exact.
func TestEachStopsAfterCancel(t *testing.T) {
	const n, cancelAt = 10000, 10
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, atCancel atomic.Int32
		Each(ctx, n, workers, func(i int) {
			started.Add(1)
			if i == cancelAt {
				cancel()
				atCancel.Store(started.Load())
			}
		})
		cancel()
		if after := int(started.Load() - atCancel.Load()); after > workers {
			t.Fatalf("workers %d: %d indexes started after the cancel returned, want at most %d", workers, after, workers)
		}
		if workers == 1 && started.Load() != cancelAt+1 {
			t.Fatalf("one worker: %d indexes started, want exactly %d", started.Load(), cancelAt+1)
		}
	}
}

// TestOrderedSubmissionOrder tops an Ordered up to its depth and drains
// it while each job sleeps a random time, so jobs finish out of order;
// Next must still return them in submission order.
func TestOrderedSubmissionOrder(t *testing.T) {
	const jobs = 200
	for workers := 1; workers <= 8; workers++ {
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, jobs)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(200)) * time.Microsecond
		}
		o := NewOrdered(workers, workers+2, func(_ int, j int) int {
			time.Sleep(delays[j])
			return -j
		})
		sent, got := 0, 0
		for got < jobs {
			for o.Len() < o.Depth() && sent < jobs {
				o.Submit(sent)
				sent++
			}
			if o.Len() > o.Depth() {
				t.Fatalf("workers %d: %d jobs pending, depth %d", workers, o.Len(), o.Depth())
			}
			if r := o.Next(); r != -got {
				t.Fatalf("workers %d: Next returned job %d, want %d", workers, -r, got)
			}
			got++
		}
		o.Close()
	}
}

// TestOrderedHoldsAtMostDepth counts the jobs inside fn at once and
// requires Submit to refuse a job beyond Depth.
func TestOrderedHoldsAtMostDepth(t *testing.T) {
	const workers, depth = 8, 3
	var inside, most atomic.Int32
	o := NewOrdered(workers, depth, func(_ int, j int) int {
		n := inside.Add(1)
		for {
			m := most.Load()
			if n <= m || most.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inside.Add(-1)
		return j
	})
	defer o.Close()
	for round := 0; round < 20; round++ {
		for o.Len() < o.Depth() {
			o.Submit(round)
		}
		o.Next()
	}
	if m := most.Load(); m > depth {
		t.Fatalf("%d jobs ran at once, depth %d", m, depth)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Submit accepted a job beyond Depth")
		}
	}()
	for i := 0; i <= depth; i++ {
		o.Submit(i)
	}
}

// TestOrderedCloseWithPending closes pools that still hold unreturned
// jobs, some of them still running, and requires every worker
// goroutine to be gone when Close returns.
func TestOrderedCloseWithPending(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran atomic.Int32
	for i := 0; i < 10; i++ {
		o := NewOrdered(4, 6, func(_ int, j int) int {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return j
		})
		for o.Len() < o.Depth() {
			o.Submit(o.Len())
		}
		o.Next()
		o.Close()
		o.Close() // idempotent
		if o.Len() != 0 {
			t.Fatalf("Len %d after Close", o.Len())
		}
	}
	if ran.Load() != 60 {
		t.Fatalf("%d jobs ran, want every submitted job (60) finished before Close returns", ran.Load())
	}
	// A worker has called wg.Done but may not have exited yet when Close
	// returns; give the runtime a moment to retire it.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after closing ten pools with pending jobs", before, n)
	}
}
