package tracefmt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

// TestReadDatasetMatchesNewDataset loads a multi-block trace whose
// records are out of start order, with ties inside and across blocks,
// through every reader: the dataset must equal failures.NewDataset of
// the same records, record for record, ties kept in write order.
func TestReadDatasetMatchesNewDataset(t *testing.T) {
	recs := synthRecords(5000)
	for i := range recs {
		recs[i].System = 1 + i%23
		if i%5 == 4 {
			recs[i].Start = recs[i-4].Start
			recs[i].End = recs[i].Start.Add(time.Duration(1+i%300) * time.Minute)
		}
	}
	want, err := failures.NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(t, recs, WriterOptions{BlockRecords: 257})
	f, err := NewFile(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.blocks) < 10 {
		t.Fatalf("%d blocks, want a multi-block trace", len(f.blocks))
	}
	readers := map[string]func() *Scanner{
		"stream": func() *Scanner {
			s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"file":       func() *Scanner { return f.Scan(ScanOptions{}) },
		"parallel-1": func() *Scanner { return f.ScanParallel(ScanOptions{}, 1) },
		"parallel-3": func() *Scanner { return f.ScanParallel(ScanOptions{}, 3) },
	}
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			got, err := ReadDataset(s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%d records, want %d", got.Len(), want.Len())
			}
			for i := 0; i < want.Len(); i++ {
				g, w := got.At(i), want.At(i)
				if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
					t.Fatalf("record %d times: got [%v, %v], want [%v, %v]", i, g.Start, g.End, w.Start, w.End)
				}
				g.Start, g.End = w.Start, w.End
				if g != w {
					t.Fatalf("record %d: got %+v, want %+v", i, g, w)
				}
			}
		})
	}
}

// TestReadDatasetNamesInvalidRecord checks that an invalid record is
// reported by its position in the trace, as written, not in start order.
func TestReadDatasetNamesInvalidRecord(t *testing.T) {
	recs := synthRecords(600)
	for i := range recs {
		recs[i].System = 1 + i%23
	}
	recs[417].System = 0
	raw := encode(t, recs, WriterOptions{BlockRecords: 64})
	s, err := NewScanner(bytes.NewReader(raw), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = ReadDataset(s)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dataset record %d:", 417)) {
		t.Fatalf("err = %v, want one naming dataset record 417", err)
	}
}
