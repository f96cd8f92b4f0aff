package sim

import (
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/randx"
)

func BenchmarkEngineEvents(b *testing.B) {
	// Throughput of the event loop itself: schedule-and-run chains.
	b.ReportAllocs()
	var e Engine
	remaining := b.N
	var step func()
	step = func() {
		if remaining == 0 {
			return
		}
		remaining--
		if err := e.Schedule(time.Second, step); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Schedule(time.Second, step); err != nil {
		b.Fatal(err)
	}
	if err := e.Run(time.Duration(b.N+2) * time.Second); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkNodeLifecycleYears(b *testing.B) {
	// Cost of simulating one node-year of failures and repairs.
	tbf, err := dist.NewWeibull(0.7, 150)
	if err != nil {
		b.Fatal(err)
	}
	ttr, err := dist.NewLogNormal(0, 1.2)
	if err != nil {
		b.Fatal(err)
	}
	src := randx.NewSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e Engine
		n, err := NewNode(0, &e, tbf, ttr, src)
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Start(); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(365 * 24 * time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointedJob(b *testing.B) {
	tbf, err := dist.NewWeibull(0.7, 100)
	if err != nil {
		b.Fatal(err)
	}
	ttr, err := dist.NewExponential(1)
	if err != nil {
		b.Fatal(err)
	}
	src := randx.NewSource(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var e Engine
		n, err := NewNode(0, &e, tbf, ttr, src)
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Start(); err != nil {
			b.Fatal(err)
		}
		job, err := startJob(&e, JobConfig{
			ID: 1, WorkHours: 500, CheckpointInterval: 10, CheckpointCostHours: 0.1,
		}, []*Node{n}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Run(1e6 * time.Hour); err != nil {
			b.Fatal(err)
		}
		if !job.Done() {
			b.Fatal("job unfinished")
		}
	}
}
