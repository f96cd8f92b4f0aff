package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/tracefmt"
)

func TestReproduceFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-bootstrap", "16"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Every table and figure must be present.
	for _, want := range []string{
		"Table 1", "Figure 1(a)", "Figure 1(b)", "Figure 2", "Figure 3",
		"Figure 4", "Figure 5", "Figure 6", "Table 2", "Table 3", "Figure 7(a)",
		"Figure 7(b, c)", "Footnote 1", "Extensions:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing section %q", want)
		}
	}
	// Paper-vs-measured lines for the headline claims.
	if strings.Count(text, "paper:") < 10 {
		t.Errorf("expected paper reference lines, got %d", strings.Count(text, "paper:"))
	}
	if strings.Count(text, "measured:") < 8 {
		t.Errorf("expected measured lines, got %d", strings.Count(text, "measured:"))
	}
	// Key reproduced shapes.
	if !strings.Contains(text, "hazard decreasing") {
		t.Error("missing decreasing-hazard finding")
	}
	if !strings.Contains(text, "best family: lognormal") {
		t.Error("missing lognormal repair finding")
	}
}

func TestReproduceBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag: want error")
	}
	if err := run([]string{"-data", "/nonexistent.csv"}, &out); err == nil {
		t.Fatal("missing data file: want error")
	}
	if err := run([]string{"-stream"}, &out); err == nil {
		t.Fatal("-stream without -data: want error")
	}
}

func TestReproduceStream(t *testing.T) {
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{5, 20}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failures.WriteCSV(f, dataset); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-data", path, "-stream", "-bootstrap", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Fleet sweep (streaming)") {
		t.Fatalf("missing streaming fleet sweep:\n%s", text)
	}
	want := fmt.Sprintf("stream: %d records in one pass", dataset.Len())
	if !strings.Contains(text, want) {
		t.Fatalf("missing %q:\n%s", want, text)
	}
	// The streaming mode must not run the materializing experiments.
	if strings.Contains(text, "Figure 1(a)") {
		t.Fatal("-stream ran the full reproduction suite")
	}
}

func TestReproduceFromCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run")
	}
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failures.WriteCSV(f, dataset); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-data", path, "-bootstrap", "16"}, &out); err != nil {
		t.Fatal(err)
	}
	// The CSV path must produce the same record count as generation.
	want := fmt.Sprintf("%d failure records", dataset.Len())
	if !strings.Contains(out.String(), want) {
		t.Fatalf("missing %q in output header", want)
	}
}

// TestReproduceStreamFromPipe is a regression test: -data used to be
// sniffed by reading and seeking back, so a pipe failed with "illegal
// seek". A CSV and a binary trace fed through a FIFO must give the
// same -stream output as the same bytes in a regular file.
func TestReproduceStreamFromPipe(t *testing.T) {
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{5, 20}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	csvPath, binPath := filepath.Join(dir, "trace.csv"), filepath.Join(dir, "trace.bin")
	var csvBuf, binBuf bytes.Buffer
	if err := failures.WriteCSV(&csvBuf, dataset); err != nil {
		t.Fatal(err)
	}
	tw, err := tracefmt.NewWriter(&binBuf, tracefmt.WriterOptions{BlockRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dataset.Len(); i++ {
		if err := tw.Write(dataset.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csvPath, csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, binBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{csvPath, binPath} {
		var want, got bytes.Buffer
		if err := run([]string{"-data", path, "-stream", "-bootstrap", "8"}, &want); err != nil {
			t.Fatal(err)
		}
		pipe := filepath.Join(t.TempDir(), "trace.pipe")
		if err := syscall.Mkfifo(pipe, 0o600); err != nil {
			t.Fatal(err)
		}
		fed := make(chan error, 1)
		go func() {
			w, err := os.OpenFile(pipe, os.O_WRONLY, 0)
			if err != nil {
				fed <- err
				return
			}
			src, err := os.Open(path)
			if err == nil {
				_, err = io.Copy(w, src)
				src.Close()
			}
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			fed <- err
		}()
		if err := run([]string{"-data", pipe, "-stream", "-bootstrap", "8"}, &got); err != nil {
			t.Fatalf("%s from a pipe: %v", filepath.Base(path), err)
		}
		if err := <-fed; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: pipe output differs from file output:\n--- file ---\n%s\n--- pipe ---\n%s",
				filepath.Base(path), want.String(), got.String())
		}
	}
}
