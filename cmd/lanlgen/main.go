// Command lanlgen generates a synthetic LANL-like failure trace and writes
// it as CSV or as the columnar binary trace format. The generator is
// calibrated to the statistics published in Schroeder & Gibson (DSN 2006);
// see DESIGN.md for the substitution argument.
//
// Usage:
//
//	lanlgen [-seed N] [-systems 5,20] [-scale X] [-workers N] [-stream] [-format csv|bin] [-catalog lanl|exa] [-out trace]
//
// -workers bounds how many systems generate concurrently and, with
// -format bin, how many goroutines encode trace blocks (0 means
// GOMAXPROCS); the output is identical at every worker count. -stream
// writes each record as it is produced instead of building the dataset
// in memory first — rows then arrive grouped by system in catalog order
// (sorted by start time within each system) rather than globally
// time-sorted; both readers re-sort on load, so a streamed file loads
// into the identical dataset. Streaming does not bound memory: the
// generator holds whole system blocks of compact records, so peak RSS
// still grows about 30 B/record (median peaks of 30, 92 and 251 MiB
// for 0.53M, 2.1M and 8.5M records with -format bin at -workers 2).
//
// -format bin writes the internal/tracefmt columnar binary format:
// ~2.5x smaller than CSV and over an order of magnitude faster to scan
// (see BENCH_trace.json). -format bin requires -out, since the binary
// stream is not terminal-friendly.
//
// -catalog exa swaps the Table 1 catalog for the extrapolated
// 10k/50k/100k-node petascale→exascale machines (system IDs 101–303);
// -systems selects within whichever catalog is active.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/tracefmt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lanlgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lanlgen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed; seed 1 is the reference dataset")
	systems := fs.String("systems", "", "comma-separated system IDs (default: all of the catalog)")
	scale := fs.Float64("scale", 1, "failure-rate scale factor")
	workers := fs.Int("workers", 0, "concurrent system generators; 0 = GOMAXPROCS")
	stream := fs.Bool("stream", false, "write records as they are generated (system-grouped row order; memory still grows with the trace, about 30 B/record)")
	format := fs.String("format", "csv", "output format: csv or bin (columnar binary; requires -out)")
	catalog := fs.String("catalog", "lanl", "system catalog: lanl (Table 1) or exa (extrapolated 10k-100k-node machines)")
	out := fs.String("out", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate everything up front so misuse fails before any expensive
	// generation starts.
	if *scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %g", *scale)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	if *format != "csv" && *format != "bin" {
		return fmt.Errorf("-format must be csv or bin, got %q", *format)
	}
	if *format == "bin" && *out == "" {
		return fmt.Errorf("-format bin requires -out (binary traces are not terminal-friendly)")
	}
	cfg := lanl.Config{Seed: *seed, RateScale: *scale, Workers: *workers}
	inCatalog := func(id int) error {
		_, err := lanl.SystemByID(id)
		return err
	}
	switch *catalog {
	case "lanl":
	case "exa":
		cfg.Catalog = lanl.ExtrapolatedCatalog()
		inCatalog = func(id int) error {
			for _, s := range cfg.Catalog {
				if s.ID == id {
					return nil
				}
			}
			return fmt.Errorf("no extrapolated system with ID %d", id)
		}
	default:
		return fmt.Errorf("-catalog must be lanl or exa, got %q", *catalog)
	}
	if *systems != "" {
		for _, part := range strings.Split(*systems, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("parse -systems: %w", err)
			}
			if err := inCatalog(id); err != nil {
				return fmt.Errorf("-systems: %w", err)
			}
			cfg.Systems = append(cfg.Systems, id)
		}
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	gen := lanl.NewGenerator(cfg)

	// The two formats share one record-at-a-time sink, so the fused
	// Stream path and the sorted Generate path both work against either;
	// only the encoding differs.
	var sink func(failures.Record) error
	var finish func() error
	var count func() int
	if *format == "bin" {
		encWorkers := *workers
		if encWorkers <= 0 {
			encWorkers = runtime.GOMAXPROCS(0)
		}
		bw, err := tracefmt.NewWriter(w, tracefmt.WriterOptions{Workers: encWorkers})
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		sink, finish, count = bw.Write, bw.Close, bw.Count
	} else {
		cw, err := failures.NewCSVWriter(w)
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
		sink, finish, count = cw.Write, cw.Flush, cw.Count
	}

	if *stream {
		rs := gen.Stream()
		defer rs.Close()
		for rs.Scan() {
			if err := sink(rs.Record()); err != nil {
				return fmt.Errorf("write: %w", err)
			}
		}
		if err := rs.Err(); err != nil {
			return fmt.Errorf("generate: %w", err)
		}
	} else {
		dataset, err := gen.Generate()
		if err != nil {
			return fmt.Errorf("generate: %w", err)
		}
		for _, r := range dataset.Records() {
			if err := sink(r); err != nil {
				return fmt.Errorf("write: %w", err)
			}
		}
	}
	if err := finish(); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d records to %s\n", count(), *out)
	}
	return nil
}
