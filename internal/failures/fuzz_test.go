package failures

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary input through both the strict and lenient
// CSV readers. Neither may panic, and whenever the strict reader accepts
// an input the lenient reader must accept the same rows with no row
// errors.
func FuzzReadCSV(f *testing.F) {
	// Round-trip output of a small valid dataset as the happy-path seed.
	d, err := NewDataset([]Record{
		rec(1, 0, 0, 30, CauseHardware),
		rec(20, 22, 90, 125, CauseSoftware),
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	// Malformed seeds mirroring TestCSVErrors plus framing pathologies.
	header := "system,node,hw,workload,cause,detail,start,end\n"
	for _, s := range []string{
		"",
		"a,b,c,d,e,f,g,h\n",
		header,
		header + "X,0,E,compute,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n",
		header + "1,X,E,compute,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n",
		header + "1,0,E,xyz,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n",
		header + "1,0,E,compute,Bogus,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n",
		header + "1,0,E,compute,Hardware,,not-a-time,2000-01-01T01:00:00Z\n",
		header + "1,0,E,compute,Hardware,,2000-01-01T00:00:00Z,nope\n",
		header + "1,0,E\n",
		header + "1,0,E,compute,Hardware,\"unterminated,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n",
		header + "1,0,E,compute,Hardware,,2000-01-01T01:00:00Z,2000-01-01T00:00:00Z\n", // end before start
		// A quoted field spanning input lines followed by a bad row: line
		// numbers must track true input lines, not record counts.
		header + "1,0,E,compute,Hardware,\"a\nb\",2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n" +
			"1,1,E,compute,Bogus,,2000-01-01T02:00:00Z,2000-01-01T03:00:00Z\n",
		header + "1,0,E,compute,Hardware,,2000-01-01T00:00:00.25Z,2000-01-01T01:00:00.5Z\n", // sub-second
		lenientInput,
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, input string) {
		strictD, strictErr := ReadCSV(strings.NewReader(input))
		lenientD, rowErrs, lenientErr := ReadCSVWith(strings.NewReader(input), ReadCSVOptions{SkipMalformed: true})

		// The streaming scanner must agree with the lenient reader on
		// accepted rows, and its row errors must name true data lines.
		if sc, err := NewScanner(strings.NewReader(input), ReadCSVOptions{SkipMalformed: true}); err == nil {
			if lenientErr != nil {
				t.Fatalf("scanner constructed but lenient reader failed header: %v", lenientErr)
			}
			n := 0
			for sc.Scan() {
				n++
			}
			if sc.Err() != nil {
				t.Fatalf("lenient scanner hit fatal error: %v", sc.Err())
			}
			if n != lenientD.Len() {
				t.Fatalf("scanner yielded %d rows, lenient reader kept %d", n, lenientD.Len())
			}
			if len(sc.RowErrors()) != len(rowErrs) {
				t.Fatalf("scanner row errors %v, reader %v", sc.RowErrors(), rowErrs)
			}
			for _, re := range sc.RowErrors() {
				if re.Line < 2 {
					t.Fatalf("row error on line %d, before any data row: %v", re.Line, re)
				}
			}
		} else if lenientErr == nil {
			t.Fatalf("lenient reader accepted header the scanner rejected: %v", err)
		}

		if strictErr != nil {
			return
		}
		// Strict acceptance implies lenient acceptance of the same rows.
		if lenientErr != nil {
			t.Fatalf("strict ok but lenient failed: %v", lenientErr)
		}
		if len(rowErrs) != 0 {
			t.Fatalf("strict ok but lenient reported row errors: %v", rowErrs)
		}
		if lenientD.Len() != strictD.Len() {
			t.Fatalf("strict kept %d rows, lenient %d", strictD.Len(), lenientD.Len())
		}
		// Accepted input must survive a write/read round trip.
		var out bytes.Buffer
		if err := WriteCSV(&out, strictD); err != nil {
			t.Fatalf("re-encode accepted dataset: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-read accepted dataset: %v", err)
		}
		if back.Len() != strictD.Len() {
			t.Fatalf("round trip kept %d of %d rows", back.Len(), strictD.Len())
		}
	})
}
