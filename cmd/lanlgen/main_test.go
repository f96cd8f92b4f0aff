package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/tracefmt"
)

func TestRunWritesCSVToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "2", "-systems", "12"}, &out); err != nil {
		t.Fatal(err)
	}
	dataset, err := failures.ReadCSV(&out)
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if dataset.Len() == 0 {
		t.Fatal("no records")
	}
	for _, id := range dataset.Systems() {
		if id != 12 {
			t.Fatalf("unexpected system %d", id)
		}
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-systems", "13,14", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("missing confirmation: %q", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dataset, err := failures.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataset.Systems(); len(got) != 2 {
		t.Fatalf("systems = %v", got)
	}
}

func TestRunScale(t *testing.T) {
	size := func(scale string) int {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-seed", "1", "-systems", "13", "-scale", scale}, &out); err != nil {
			t.Fatal(err)
		}
		d, err := failures.ReadCSV(&out)
		if err != nil {
			t.Fatal(err)
		}
		return d.Len()
	}
	if base, doubled := size("1"), size("2"); doubled < base*3/2 {
		t.Fatalf("scale 2 gave %d vs base %d", doubled, base)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-systems", "abc"}, &out); err == nil {
		t.Fatal("bad -systems: want error")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag: want error")
	}
	if err := run([]string{"-systems", "99"}, &out); err == nil {
		t.Fatal("unknown system ID: want error")
	}
	if err := run([]string{"-scale", "0"}, &out); err == nil {
		t.Fatal("zero -scale: want error")
	}
	if err := run([]string{"-scale", "-1"}, &out); err == nil {
		t.Fatal("negative -scale: want error")
	}
	if err := run([]string{"-workers", "-2"}, &out); err == nil {
		t.Fatal("negative -workers: want error")
	}
	if err := run([]string{"-format", "parquet"}, &out); err == nil {
		t.Fatal("unknown -format: want error")
	}
	if err := run([]string{"-format", "bin"}, &out); err == nil {
		t.Fatal("-format bin without -out: want error")
	}
}

func TestRunBinaryFormatMatchesCSV(t *testing.T) {
	// The binary trace holds exactly the records of the CSV trace for the
	// same seed, independent of worker count. The file deliberately has a
	// .csv extension: readers must identify the format by its magic
	// bytes, never by the name.
	var csvOut bytes.Buffer
	if err := run([]string{"-seed", "4", "-systems", "5,6", "-workers", "1"}, &csvOut); err != nil {
		t.Fatal(err)
	}
	want, err := failures.ReadCSV(&csvOut)
	if err != nil {
		t.Fatal(err)
	}

	var prev []byte
	for _, workers := range []string{"1", "4", "8"} {
		path := filepath.Join(t.TempDir(), "trace.csv")
		var out bytes.Buffer
		if err := run([]string{"-seed", "4", "-systems", "5,6", "-format", "bin",
			"-workers", workers, "-out", path}, &out); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tracefmt.NewScanner(bytes.NewReader(raw), tracefmt.ScanOptions{})
		if err != nil {
			t.Fatalf("workers %s: output is not a binary trace: %v", workers, err)
		}
		if prev != nil && !bytes.Equal(raw, prev) {
			t.Fatalf("binary output differs between worker counts (workers %s)", workers)
		}
		prev = raw
		got, err := tracefmt.ReadDataset(s)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers %s: binary trace has %d records, CSV %d", workers, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			g, w := got.At(i), want.At(i)
			if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
				t.Fatalf("workers %s: record %d times differ", workers, i)
			}
			g.Start, g.End = w.Start, w.End
			if g != w {
				t.Fatalf("workers %s: record %d: got %+v, want %+v", workers, i, g, w)
			}
		}
	}
}

func TestRunStreamMatchesMaterialized(t *testing.T) {
	// A streamed file holds the same records as a materialized one — in
	// system-grouped order, so compare after loading (ReadCSV re-sorts).
	var materialized, streamed bytes.Buffer
	if err := run([]string{"-seed", "2", "-systems", "19,20"}, &materialized); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "2", "-systems", "19,20", "-stream", "-workers", "4"}, &streamed); err != nil {
		t.Fatal(err)
	}
	want, err := failures.ReadCSV(&materialized)
	if err != nil {
		t.Fatal(err)
	}
	got, err := failures.ReadCSV(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("stream wrote %d records, materialized %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("record %d differs after load:\n got %+v\nwant %+v", i, got.At(i), want.At(i))
		}
	}
}

func TestRunWorkersIdenticalOutput(t *testing.T) {
	var w1, w8 bytes.Buffer
	if err := run([]string{"-seed", "3", "-systems", "20,21", "-workers", "1"}, &w1); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "3", "-systems", "20,21", "-workers", "8"}, &w8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w8.Bytes()) {
		t.Fatal("CSV output differs between -workers 1 and -workers 8")
	}
}
