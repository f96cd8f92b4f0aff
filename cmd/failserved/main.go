// Command failserved runs the failure-analytics daemon: an HTTP/JSON
// service that ingests failure-record CSV streams for many tenants,
// folds each into a crash-recoverable incremental analysis, and serves
// fit/CI/rate/summary queries (see internal/serve for the API and the
// robustness contract).
//
// Usage:
//
//	failserved -data DIR [-addr :8080] [-snapshot-interval 30s] [-sync-wal] ...
//
// SIGINT/SIGTERM drains gracefully: in-flight and queued batches finish,
// a final snapshot is written, then the process exits. Kill -9 is also
// safe — the next start replays the write-ahead log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/serve"
	"hpcfail/internal/streamstats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failserved:", err)
		os.Exit(1)
	}
}

// config parses flags into a server config plus the listen address.
func config(args []string) (serve.Config, string, error) {
	fs := flag.NewFlagSet("failserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "", "durability directory for snapshot + WAL (required)")
	queueDepth := fs.Int("queue-depth", 0, "per-tenant pending-batch bound (0 = 64)")
	maxBody := fs.Int64("max-body-bytes", 0, "ingest body byte cap (0 = 8 MiB)")
	maxBatch := fs.Int("max-batch-records", 0, "ingest batch record cap (0 = 100000)")
	readTimeout := fs.Duration("read-timeout", 0, "ingest body read deadline (0 = 30s)")
	dedupe := fs.Int("dedupe-window", 0, "remembered Ingest-Ids per tenant (0 = 256)")
	quarantine := fs.Int("quarantine-keep", 0, "quarantined-row diagnostics kept per tenant (0 = 100)")
	snapInterval := fs.Duration("snapshot-interval", 30*time.Second, "background snapshot period (0 disables)")
	syncWAL := fs.Bool("sync-wal", false, "fsync the WAL after every batch")
	workers := fs.Int("workers", 0, "fit worker bound (0 = GOMAXPROCS)")
	reps := fs.Int("bootstrap", 200, "bootstrap resamples per confidence interval (negative disables CIs)")
	seed := fs.Int64("seed", 1, "engine seed (drives reservoir subsampling and bootstrap)")
	fleet := fs.Bool("fleet", true, "include the all-systems aggregate shard")
	byWorkload := fs.Bool("by-workload", false, "shard each system by workload")
	byCause := fs.Bool("by-cause", true, "shard each system by root cause")
	reservoir := fs.Int("reservoir", 0, "per-shard fitting subsample cap (0 = streamstats default)")
	epsilon := fs.Float64("epsilon", 0, fmt.Sprintf("quantile sketch relative accuracy, in [%g, 1) (0 = default %g)",
		streamstats.MinSketchEpsilon, streamstats.DefaultSketchEpsilon))
	if err := fs.Parse(args); err != nil {
		return serve.Config{}, "", err
	}
	if *data == "" {
		return serve.Config{}, "", errors.New("-data is required")
	}
	// Every tenant's first ingest would fail on an epsilon out of range.
	if _, err := streamstats.NewQuantileSketch(*epsilon); err != nil {
		return serve.Config{}, "", err
	}
	cfg := serve.Config{
		DataDir: *data,
		Engine: engine.Options{
			Workers:       *workers,
			BootstrapReps: *reps,
			Seed:          *seed,
		},
		Stream: engine.StreamOptions{
			Spec: engine.ShardSpec{
				IncludeFleet: *fleet,
				ByWorkload:   *byWorkload,
				ByCause:      *byCause,
			},
			SketchEpsilon: *epsilon,
			ReservoirSize: *reservoir,
		},
		QueueDepth:       *queueDepth,
		MaxBodyBytes:     *maxBody,
		MaxBatchRecords:  *maxBatch,
		ReadTimeout:      *readTimeout,
		DedupeWindow:     *dedupe,
		QuarantineKeep:   *quarantine,
		SnapshotInterval: *snapInterval,
		SyncWAL:          *syncWAL,
	}
	return cfg, *addr, nil
}

func run(args []string, stdout io.Writer) error {
	cfg, addr, err := config(args)
	if err != nil {
		return err
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Fprintf(stdout, "failserved: listening on %s, data in %s\n", addr, cfg.DataDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "failserved: draining")
	case err := <-errc:
		return err
	}

	// Stop accepting connections, then drain the analytics pipeline and
	// write the final snapshot.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := s.Shutdown(shutCtx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "failserved: drained, final snapshot written")
	return nil
}
