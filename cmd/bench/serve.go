package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/serve"
	"hpcfail/internal/serve/client"
)

type ingestResult struct {
	Records       int     `json:"records"`
	Batches       int     `json:"batches"`
	Clients       int     `json:"clients"`
	WallMs        float64 `json:"wall_ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
	// Acks answered from the dedupe window: a client retried after losing
	// a 200, and the server refused to fold the batch twice.
	DuplicateAcks int64 `json:"duplicate_acks"`
}

type queryResult struct {
	Queries int     `json:"queries"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
	// Batches the background writer folded in while queries ran; the run
	// fails unless it is nonzero, so the sampled latencies really include
	// lazy refits.
	ConcurrentBatches int `json:"concurrent_batches"`
}

// serveReport is BENCH_serve.json.
type serveReport struct {
	header
	Ingest ingestResult `json:"ingest"`
	Query  queryResult  `json:"query"`
	Note   string       `json:"note"`
}

// runServe exercises the failserved daemon end to end over loopback
// HTTP: concurrent clients stream a generated failure trace into one
// tenant in CSV batches, then query latency on /v1/.../result is sampled
// while a background writer keeps appending (every query therefore pays
// the lazy refit of freshly dirtied shards).
func runServe(args []string) error {
	fs := flag.NewFlagSet("bench serve", flag.ContinueOnError)
	out := fs.String("out", "BENCH_serve.json", "output file")
	scale := fs.Float64("scale", 2, "failure-rate scale for the generated trace")
	batch := fs.Int("batch", 500, "records per ingest batch")
	clients := fs.Int("clients", 4, "concurrent ingest clients")
	queries := fs.Int("queries", 100, "result queries sampled under concurrent appends")
	bootstrap := fs.Int("bootstrap", -1, "bootstrap resamples per CI (negative disables, the default)")
	seed := fs.Int64("seed", 1, "trace and engine seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 || *clients < 1 || *queries < 1 {
		return fmt.Errorf("-batch, -clients and -queries must be positive")
	}

	d, err := lanl.NewGenerator(lanl.Config{Seed: *seed, RateScale: *scale}).Generate()
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	batches, err := encodeBatches(d.Records(), *batch)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "bench-serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := serve.New(serve.Config{
		DataDir: dir,
		Engine:  engine.Options{BootstrapReps: *bootstrap, Seed: *seed},
		Stream: engine.StreamOptions{
			Spec: engine.ShardSpec{IncludeFleet: true, ByCause: true},
		},
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ctx := context.Background()

	// Phase 1: ingest throughput. Clients share a batch queue; 429s are
	// absorbed inside the client's retry loop, so the wall clock already
	// charges any backpressure stalls to the throughput number.
	var dupes atomic.Int64
	work := make(chan int, len(batches))
	for i := range batches {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	errc := make(chan error, *clients)
	start := time.Now()
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(ts.URL, client.Options{})
			for i := range work {
				res, err := c.Ingest(ctx, "bench", fmt.Sprintf("batch-%d", i), batches[i])
				if err != nil {
					errc <- fmt.Errorf("batch %d: %w", i, err)
					return
				}
				if res.Duplicate {
					dupes.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ingestWall := time.Since(start)
	select {
	case err := <-errc:
		return err
	default:
	}
	ing := ingestResult{
		Records:       d.Len(),
		Batches:       len(batches),
		Clients:       *clients,
		WallMs:        ms(ingestWall),
		RecordsPerSec: round(float64(d.Len()) / ingestWall.Seconds()),
		DuplicateAcks: dupes.Load(),
	}

	// Phase 2: /result latency while a writer keeps dirtying shards. The
	// writer replays the trace with fresh Ingest-Ids so every append is
	// folded, not deduped. Its error is read only after writerDone closes.
	writerCtx, stopWriter := context.WithCancel(ctx)
	defer stopWriter()
	var folded atomic.Int64
	var writerErr error
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c := client.New(ts.URL, client.Options{})
		for pass := 1; ; pass++ {
			for i := range batches {
				if writerCtx.Err() != nil {
					return
				}
				if _, err := c.Ingest(writerCtx, "bench", fmt.Sprintf("r%d-batch-%d", pass, i), batches[i]); err != nil {
					writerErr = err
					return
				}
				folded.Add(1)
			}
		}
	}()
	qc := client.New(ts.URL, client.Options{})
	lat := make([]float64, 0, *queries)
	var queryErr error
	for i := 0; i < *queries; i++ {
		qs := time.Now()
		if _, err := qc.Result(ctx, "bench"); err != nil {
			queryErr = fmt.Errorf("query %d: %w", i, err)
			break
		}
		lat = append(lat, float64(time.Since(qs).Nanoseconds())/1e6)
	}
	stopWriter()
	<-writerDone
	if queryErr != nil {
		return queryErr
	}
	// Stopping the writer cancels its in-flight ingest; any other error
	// means the appends stopped before the queries did.
	if writerErr != nil && !errors.Is(writerErr, context.Canceled) {
		return fmt.Errorf("background writer: %w", writerErr)
	}
	if folded.Load() == 0 {
		return errors.New("background writer folded no batch while queries ran: latencies were not measured under live appends")
	}
	sort.Float64s(lat)
	qry := queryResult{
		Queries:           len(lat),
		P50Ms:             round(percentile(lat, 0.50)),
		P99Ms:             round(percentile(lat, 0.99)),
		MaxMs:             round(lat[len(lat)-1]),
		ConcurrentBatches: int(folded.Load()),
	}

	rep := serveReport{
		header: newHeader("failserved over loopback HTTP: concurrent CSV ingest, then /result latency under live appends"),
		Ingest: ing,
		Query:  qry,
		Note: "ingest wall clock includes WAL append and the fold into the incremental " +
			"engine; query latency includes the lazy refit of shards dirtied by the " +
			"concurrent writer. Loopback HTTP, so no real network jitter.",
	}
	fmt.Printf("ingest: %d records in %d batches, %.0f rec/s across %d clients\n",
		ing.Records, ing.Batches, ing.RecordsPerSec, ing.Clients)
	fmt.Printf("query under appends: p50 %.1f ms, p99 %.1f ms, max %.1f ms (%d concurrent batches)\n",
		qry.P50Ms, qry.P99Ms, qry.MaxMs, qry.ConcurrentBatches)
	return writeReport(*out, rep)
}

// encodeBatches splits the trace into CSV bodies of up to n records each.
func encodeBatches(recs []failures.Record, n int) ([][]byte, error) {
	var batches [][]byte
	for lo := 0; lo < len(recs); lo += n {
		hi := min(lo+n, len(recs))
		var buf bytes.Buffer
		w, err := failures.NewCSVWriter(&buf)
		if err != nil {
			return nil, err
		}
		for _, r := range recs[lo:hi] {
			if err := w.Write(r); err != nil {
				return nil, err
			}
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		batches = append(batches, buf.Bytes())
	}
	return batches, nil
}

// percentile reads the q-quantile from an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
