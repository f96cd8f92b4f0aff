package failures

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestScannerMatchesReadCSV checks that streaming over a mixed good/bad
// input yields exactly the rows and row errors of the materializing
// reader, in both modes.
func TestScannerMatchesReadCSV(t *testing.T) {
	d, rowErrs, err := ReadCSVWith(strings.NewReader(lenientInput), ReadCSVOptions{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(strings.NewReader(lenientInput), ReadCSVOptions{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	var lines []int
	for sc.Scan() {
		got = append(got, sc.Record())
		lines = append(lines, sc.Line())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != d.Len() {
		t.Fatalf("scanner yielded %d records, reader kept %d", len(got), d.Len())
	}
	// lenientInput is already in time order, so dataset order == scan order.
	for i, rec := range got {
		if rec != d.At(i) {
			t.Errorf("record %d: scanner %+v != reader %+v", i, rec, d.At(i))
		}
	}
	wantLines := []int{2, 4, 6, 8}
	for i, want := range wantLines {
		if lines[i] != want {
			t.Errorf("record %d scanned from line %d, want %d", i, lines[i], want)
		}
	}
	if len(sc.RowErrors()) != len(rowErrs) {
		t.Fatalf("scanner row errors %v, reader %v", sc.RowErrors(), rowErrs)
	}
	for i := range rowErrs {
		if sc.RowErrors()[i].Line != rowErrs[i].Line {
			t.Errorf("row error %d: scanner line %d, reader line %d",
				i, sc.RowErrors()[i].Line, rowErrs[i].Line)
		}
	}

	// Strict mode stops at the first malformed row (line 3) with its line
	// in the error, after yielding the one good row before it.
	strict, err := NewScanner(strings.NewReader(lenientInput), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for strict.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("strict scanner yielded %d records before aborting, want 1", n)
	}
	if err := strict.Err(); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("strict scanner error = %v, want mention of line 3", err)
	}
	if strict.Scan() {
		t.Fatal("Scan after fatal error should keep returning false")
	}
}

// TestScannerHeaderErrors mirrors the reader's structural failures.
func TestScannerHeaderErrors(t *testing.T) {
	for _, input := range []string{"", "a,b,c,d,e,f,g,h\n"} {
		if _, err := NewScanner(strings.NewReader(input), ReadCSVOptions{}); err == nil {
			t.Errorf("NewScanner(%q): want header error", input)
		}
	}
}

// TestWriteCSVSubsecondRoundTrip is the regression test for the timestamp
// precision bug: WriteCSV used time.RFC3339, silently truncating
// sub-second precision so Write → Read was not an identity. RFC3339Nano
// preserves it (and writes whole seconds identically to before).
func TestWriteCSVSubsecondRoundTrip(t *testing.T) {
	base := time.Date(2004, 7, 1, 10, 30, 0, 123456789, time.UTC)
	whole := time.Date(2004, 7, 1, 11, 30, 0, 0, time.UTC)
	recs := []Record{
		{System: 1, Node: 0, HW: "E", Workload: WorkloadCompute, Cause: CauseHardware,
			Start: base, End: base.Add(90*time.Minute + 250*time.Millisecond)},
		{System: 1, Node: 1, HW: "E", Workload: WorkloadCompute, Cause: CauseSoftware,
			Start: whole, End: whole.Add(time.Hour)},
	}
	d, err := NewDataset(recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip kept %d of %d records", back.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		want, got := d.At(i), back.At(i)
		if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
			t.Errorf("record %d: round-tripped %v–%v, want %v–%v",
				i, got.Start, got.End, want.Start, want.End)
		}
		got.Start, got.End = want.Start, want.End
		if got != want {
			t.Errorf("record %d: non-time fields changed: %+v != %+v", i, got, want)
		}
	}
	// Whole-second timestamps keep the exact pre-existing rendering.
	if !strings.Contains(buf.String(), "2004-07-01T10:30:00.123456789Z") {
		t.Errorf("sub-second timestamp not preserved in output:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "2004-07-01T12:30:00Z") {
		t.Errorf("whole-second timestamp not rendered as plain RFC 3339:\n%s", buf.String())
	}
}

// TestRowErrorLineMultilineQuotedField is the regression test for the
// line-number bug: the previous reader counted one line per CSV record,
// so a quoted field containing newlines made every subsequent RowError
// point at the wrong input line. FieldPos reports true lines.
func TestRowErrorLineMultilineQuotedField(t *testing.T) {
	// Line 1: header. Lines 2–4: one good record whose quoted detail
	// field spans three input lines. Line 5: a good record. Line 6: a
	// malformed one (bad cause). The record-counting reader reported the
	// malformed row as line 4.
	input := "system,node,hw,workload,cause,detail,start,end\n" +
		"1,0,E,compute,Hardware,\"multi\nline\ndetail\",2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n" +
		"1,1,E,compute,Software,,2000-01-01T02:00:00Z,2000-01-01T03:00:00Z\n" +
		"1,2,E,compute,Bogus,,2000-01-01T04:00:00Z,2000-01-01T05:00:00Z\n"
	d, rowErrs, err := ReadCSVWith(strings.NewReader(input), ReadCSVOptions{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("kept %d records, want 2", d.Len())
	}
	if d.At(0).Detail != "multi\nline\ndetail" {
		t.Fatalf("multi-line detail = %q", d.At(0).Detail)
	}
	if len(rowErrs) != 1 || rowErrs[0].Line != 6 {
		t.Fatalf("row errors = %v, want one at line 6", rowErrs)
	}
	// The scanner agrees, both for yielded lines and the skipped row.
	sc, err := NewScanner(strings.NewReader(input), ReadCSVOptions{SkipMalformed: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for sc.Scan() {
		lines = append(lines, sc.Line())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || lines[0] != 2 || lines[1] != 5 {
		t.Fatalf("scanned record lines = %v, want [2 5]", lines)
	}
	if len(sc.RowErrors()) != 1 || sc.RowErrors()[0].Line != 6 {
		t.Fatalf("scanner row errors = %v, want one at line 6", sc.RowErrors())
	}
	// Strict mode names the true line too.
	if _, err := ReadCSV(strings.NewReader(input)); err == nil || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("strict error = %v, want mention of line 6", err)
	}
}
