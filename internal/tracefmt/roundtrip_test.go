package tracefmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

// seed1CSVSHA is the pinned sha256 of the seed-1 LANL trace in CSV form
// (EXPERIMENTS.md, "Frozen oracle"). The binary format is only allowed
// into the hot path because converting CSV → bin → CSV reproduces this
// digest byte-for-byte.
const seed1CSVSHA = "c77f2f93b9f5e8fb9929fc0de127e3ca20b3f9cb78b6a7a306b822364c2bdb1e"

func csvBytes(t *testing.T, write func(emit func(failures.Record) error) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := failures.NewCSVWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(cw.Write); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeed1CSVBinCSVRoundTrip is the frozen-oracle gate for the binary
// format: generate the seed-1 trace, encode it to the binary format,
// decode it back, re-emit CSV, and demand the pinned digest.
func TestSeed1CSVBinCSVRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full seed-1 trace")
	}
	gen := lanl.NewGenerator(lanl.Config{Seed: 1})

	// Reference CSV from the sorted dataset — the exact bytes the pinned
	// digest was taken over (lanlgen's default path).
	seed1, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	direct := csvBytes(t, func(emit func(failures.Record) error) error {
		for _, r := range seed1.Records() {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	})
	if got := hex.EncodeToString(func() []byte { h := sha256.Sum256(direct); return h[:] }()); got != seed1CSVSHA {
		t.Fatalf("seed-1 CSV digest drifted before the binary format was even involved:\n got %s\nwant %s", got, seed1CSVSHA)
	}

	// CSV → records → bin: parse the CSV (not the generator) so the CSV
	// parse/format pair is inside the loop being tested.
	ds, err := failures.ReadCSV(bytes.NewReader(direct))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw, err := NewWriter(&bin, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records() {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	// bin → CSV via the streaming scanner.
	s, err := NewScanner(bytes.NewReader(bin.Bytes()), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := csvBytes(t, func(emit func(failures.Record) error) error {
		for s.Scan() {
			if err := emit(s.Record()); err != nil {
				return err
			}
		}
		return s.Err()
	})
	if !bytes.Equal(out, direct) {
		t.Fatalf("CSV → bin → CSV is not byte-identical: %d bytes in, %d bytes out", len(direct), len(out))
	}
	h := sha256.Sum256(out)
	if got := hex.EncodeToString(h[:]); got != seed1CSVSHA {
		t.Fatalf("round-tripped digest %s, want pinned %s", got, seed1CSVSHA)
	}
	t.Logf("seed-1 round trip: %d records, CSV %d bytes, bin %d bytes (%.2fx smaller)",
		ds.Len(), len(direct), bin.Len(), float64(len(direct))/float64(bin.Len()))
}

// seed1BinSHA pins the binary encoding of the seed-1 Generate dataset,
// keyed by WriterOptions.BlockRecords (0 is DefaultBlockRecords). The
// digests were recorded with the inline single-goroutine encoder; every
// worker count must reproduce them.
var seed1BinSHA = map[int]string{
	0: "e42cece5a83c661578dc64919b98daf99c2088e443ecd901440171dc93b8c1cf",
	7: "da600bca15f5e6b633a7dda47fd9b4d75311cee7649d243d2dbfe5ad97097700",
}

// TestSeed1BinaryBytesPinned: the .bin bytes of the seed-1 trace are a
// fixed function of the records and the block size, at every encoder
// worker count.
func TestSeed1BinaryBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full seed-1 trace")
	}
	seed1, err := lanl.NewGenerator(lanl.Config{Seed: 1}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for blockN, want := range seed1BinSHA {
		for _, workers := range []int{0, 1, 4} {
			h := sha256.Sum256(encode(t, seed1.Records(), WriterOptions{BlockRecords: blockN, Workers: workers}))
			if got := hex.EncodeToString(h[:]); got != want {
				t.Errorf("BlockRecords %d, Workers %d: sha256 %s, want %s", blockN, workers, got, want)
			}
		}
	}
}
