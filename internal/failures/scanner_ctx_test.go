package failures

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// ctxCSV builds a valid trace CSV with n records, one minute apart.
func ctxCSV(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewCSVWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2004, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		rec := Record{
			System:   1,
			Node:     i % 8,
			HW:       "A",
			Workload: WorkloadCompute,
			Cause:    CauseHardware,
			Detail:   "CPU",
			Start:    start.Add(time.Duration(i) * time.Minute),
			End:      start.Add(time.Duration(i)*time.Minute + 30*time.Minute),
		}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A cancelled context must stop the scan before the next row and surface
// ctx.Err() — not EOF, not a parse error — through Err.
func TestScannerContextCancellation(t *testing.T) {
	data := ctxCSV(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	sc, err := NewScannerContext(ctx, bytes.NewReader(data), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const before = 10
	for i := 0; i < before; i++ {
		if !sc.Scan() {
			t.Fatalf("scan %d: stopped early: %v", i, sc.Err())
		}
	}
	cancel()
	if sc.Scan() {
		t.Fatal("Scan succeeded after cancellation")
	}
	if err := sc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	// The scanner stays stopped.
	if sc.Scan() {
		t.Fatal("Scan restarted after a cancellation stop")
	}
}

// An already-done context aborts before the first row, and a scanner
// without a context is unaffected by cancellation machinery.
func TestScannerContextImmediateAndAbsent(t *testing.T) {
	data := ctxCSV(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc, err := NewScannerContext(ctx, bytes.NewReader(data), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scan() {
		t.Fatal("Scan succeeded under a pre-cancelled context")
	}
	if err := sc.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}

	plain, err := NewScannerContext(context.Background(), bytes.NewReader(data), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for plain.Scan() {
		n++
	}
	if err := plain.Err(); err != nil || n != 5 {
		t.Fatalf("background-context scan: n=%d err=%v", n, err)
	}
}
