package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/tracefmt"
)

var (
	traceOnce sync.Once
	tracePath string
	traceErr  error
)

// testTrace writes a system 20 + system 5 trace once for all tests.
func testTrace(t *testing.T) string {
	t.Helper()
	traceOnce.Do(func() {
		dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{5, 20}}).Generate()
		if err != nil {
			traceErr = err
			return
		}
		dir, err := os.MkdirTemp("", "failstat")
		if err != nil {
			traceErr = err
			return
		}
		tracePath = filepath.Join(dir, "trace.csv")
		f, err := os.Create(tracePath)
		if err != nil {
			traceErr = err
			return
		}
		defer f.Close()
		traceErr = failures.WriteCSV(f, dataset)
	})
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	return tracePath
}

func TestAnalyses(t *testing.T) {
	path := testTrace(t)
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"rootcause", []string{"-analysis", "rootcause"}, []string{"Hardware", "All systems"}},
		{"downtime", []string{"-analysis", "downtime"}, []string{"root cause", "%"}},
		{"rates", []string{"-analysis", "rates"}, []string{"Per year per proc"}},
		{"pernode", []string{"-analysis", "pernode", "-system", "20"}, []string{"node 22", "poisson"}},
		{"lifecycle", []string{"-analysis", "lifecycle", "-system", "5", "-months", "30"}, []string{"month 29", "early-drop"}},
		{"timeofday", []string{"-analysis", "timeofday"}, []string{"peak/trough"}},
		{"interarrival", []string{"-analysis", "interarrival", "-system", "20", "-node", "22"}, []string{"weibull", "system-wide"}},
		{"repair", []string{"-analysis", "repair"}, []string{"Table 2", "lognormal"}},
		{"repair-systems", []string{"-analysis", "repair-systems"}, []string{"Median (min)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-data", path}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// binaryTrace re-encodes the shared test trace as a columnar binary file
// whose name still says .csv: failstat must identify the format by its
// magic bytes, never by the extension.
func binaryTrace(t *testing.T) string {
	t.Helper()
	src, err := os.Open(testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	d, err := failures.ReadCSV(src)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := tracefmt.NewWriter(f, tracefmt.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if err := w.Write(d.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBinaryInputMatchesCSV(t *testing.T) {
	csvPath := testTrace(t)
	binPath := binaryTrace(t)
	for _, analysis := range []string{"rootcause", "rates", "repair"} {
		var fromCSV, fromBin bytes.Buffer
		if err := run([]string{"-data", csvPath, "-analysis", analysis}, &fromCSV); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-data", binPath, "-analysis", analysis}, &fromBin); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromCSV.Bytes(), fromBin.Bytes()) {
			t.Fatalf("%s output differs between CSV and binary input:\n--- csv ---\n%s\n--- bin ---\n%s",
				analysis, fromCSV.String(), fromBin.String())
		}
	}

	// The streaming fleet path reads both formats through the same
	// RecordSource seam; outputs must match byte for byte.
	var csvStream, binStream bytes.Buffer
	if err := run([]string{"-data", csvPath, "-analysis", "fleet", "-stream", "-bootstrap", "8"}, &csvStream); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", binPath, "-analysis", "fleet", "-stream", "-bootstrap", "8"}, &binStream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvStream.Bytes(), binStream.Bytes()) {
		t.Fatal("streaming fleet output differs between CSV and binary input")
	}
}

// fifo serves the file at path through a named pipe, so run gets a
// -data input it can neither seek nor stat as a regular file. wait
// reports the feeding goroutine's error once run has drained the pipe.
func fifo(t *testing.T, path string) (pipe string, wait func() error) {
	t.Helper()
	pipe = filepath.Join(t.TempDir(), "trace.pipe")
	if err := syscall.Mkfifo(pipe, 0o600); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		w, err := os.OpenFile(pipe, os.O_WRONLY, 0)
		if err != nil {
			done <- err
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
		done <- err
	}()
	return pipe, func() error { return <-done }
}

// TestDataFromPipe is a regression test: -data used to be sniffed by
// reading and seeking back, so any pipe failed with "illegal seek".
// Both formats must read from a FIFO with the same output as from the
// regular file, in the materializing and the streaming paths.
func TestDataFromPipe(t *testing.T) {
	inputs := []struct{ name, path string }{{"csv", testTrace(t)}, {"bin", binaryTrace(t)}}
	for _, in := range inputs {
		for _, args := range [][]string{
			{"-analysis", "rootcause"},
			{"-analysis", "fleet", "-stream", "-bootstrap", "8"},
		} {
			var want, got bytes.Buffer
			if err := run(append([]string{"-data", in.path}, args...), &want); err != nil {
				t.Fatal(err)
			}
			pipe, wait := fifo(t, in.path)
			if err := run(append([]string{"-data", pipe}, args...), &got); err != nil {
				t.Fatalf("%s %v from a pipe: %v", in.name, args, err)
			}
			if err := wait(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s %v: pipe output differs from file output:\n--- file ---\n%s\n--- pipe ---\n%s",
					in.name, args, want.String(), got.String())
			}
		}
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -data: want error")
	}
	if err := run([]string{"-data", "/nonexistent.csv"}, &out); err == nil {
		t.Fatal("missing file: want error")
	}
	path := testTrace(t)
	if err := run([]string{"-data", path, "-analysis", "bogus"}, &out); err == nil {
		t.Fatal("unknown analysis: want error")
	}
	if err := run([]string{"-data", path, "-analysis", "pernode", "-system", "99"}, &out); err == nil {
		t.Fatal("unknown system: want error")
	}
}

func TestExtendedAnalyses(t *testing.T) {
	path := testTrace(t)
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"availability", []string{"-analysis", "availability"}, []string{"Availability", "MTTR"}},
		{"details", []string{"-analysis", "details", "-system", "20"}, []string{"memory", "Share"}},
		{"trend", []string{"-analysis", "trend", "-system", "5"}, []string{"Laplace", "improving"}},
		{"hazard", []string{"-analysis", "hazard", "-system", "20"}, []string{"trend: decreasing"}},
		{"batches", []string{"-analysis", "batches", "-system", "20"}, []string{"batches:", "mean batch size"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-data", path}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestStatisticalAnalyses(t *testing.T) {
	path := testTrace(t)
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"acf", []string{"-analysis", "acf", "-system", "20"}, []string{"Autocorrelation", "Lag"}},
		{"kstest", []string{"-analysis", "kstest", "-system", "20"}, []string{"Bootstrap p-value", "weibull"}},
		{"changepoint", []string{"-analysis", "changepoint", "-system", "5"}, []string{"change", "log-likelihood ratio"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append([]string{"-data", path}, tc.args...)
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestStreamFleet(t *testing.T) {
	path := testTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-data", path, "-analysis", "fleet", "-stream", "-bootstrap", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fleet sweep (streaming)",
		"fleet / all / all", // the aggregate shard reached the table
		"records in one pass",
		"sketch eps",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	// -stream is fleet-only.
	if err := run([]string{"-data", path, "-analysis", "repair", "-stream"}, &out); err == nil {
		t.Fatal("-stream with non-fleet analysis: want error")
	}
}

func TestCDFSeriesFlag(t *testing.T) {
	path := testTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-data", path, "-analysis", "repair", "-cdf"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CDF series, Figure 7(a)") ||
		!strings.Contains(out.String(), "empirical") {
		t.Fatalf("missing CDF series:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-data", path, "-analysis", "interarrival", "-cdf"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CDF series, panel (d)") {
		t.Fatal("missing interarrival CDF series")
	}
}
