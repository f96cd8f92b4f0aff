package main

import (
	"bytes"
	"testing"
)

// TestRun guards the example against bit-rot and pins its determinism: it
// must execute end to end without error, and repeated runs over the same
// seeded fleet must print byte-identical reports.
func TestRun(t *testing.T) {
	var first bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		var again bytes.Buffer
		if err := run(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("run %d printed a different report:\n%s\nfirst run:\n%s", i, again.String(), first.String())
		}
	}
}
