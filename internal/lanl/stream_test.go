package lanl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

func collectStream(t *testing.T, cfg Config) []failures.Record {
	t.Helper()
	s := NewGenerator(cfg).Stream()
	defer s.Close()
	var records []failures.Record
	for s.Scan() {
		records = append(records, s.Record())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return records
}

func TestGenerateStreamRebuildsGenerate(t *testing.T) {
	// The emitted sequence, loaded into a dataset, must equal Generate()
	// exactly — the stream is the same trace in a different delivery.
	want, err := NewGenerator(Config{Seed: 2}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 8} {
		records := collectStream(t, Config{Seed: 2, Workers: w})
		got, err := failures.NewDataset(records)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "stream workers", got, want)
	}
}

func TestGenerateStreamEmissionOrderIsDeterministic(t *testing.T) {
	// Not just the sorted dataset: the raw emission sequence itself must
	// be identical at every worker count (system-grouped, catalog order,
	// sorted within each system).
	want := collectStream(t, Config{Seed: 5, Workers: 1})
	got := collectStream(t, Config{Seed: 5, Workers: 8})
	if len(got) != len(want) {
		t.Fatalf("workers 8 emitted %d records, workers 1 emitted %d", len(got), len(want))
	}
	lastSys := -1
	seen := make(map[int]bool)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emission %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if s := want[i].System; s != lastSys {
			if seen[s] {
				t.Fatalf("system %d emitted in more than one contiguous group", s)
			}
			seen[s] = true
			if s < lastSys {
				t.Fatalf("system %d emitted after system %d; want catalog order", s, lastSys)
			}
			lastSys = s
		} else if i > 0 && want[i].System == want[i-1].System &&
			want[i].Start.Before(want[i-1].Start) {
			t.Fatalf("record %d out of order within system %d", i, want[i].System)
		}
	}
}

func TestRecordStreamDrain(t *testing.T) {
	want := collectStream(t, Config{Seed: 3, Systems: []int{19, 20}})
	for _, w := range []int{1, 4} {
		s := NewGenerator(Config{Seed: 3, Systems: []int{19, 20}, Workers: w}).Stream()
		var got []failures.Record
		for s.Scan() {
			got = append(got, s.Record())
		}
		if err := s.Err(); err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers %d: drained %d records, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d: record %d differs", w, i)
			}
		}
	}
}

func TestRecordStreamEarlyClose(t *testing.T) {
	for _, w := range []int{1, 4} {
		before := runtime.NumGoroutine()
		s := NewGenerator(Config{Seed: 1, Workers: w}).Stream()
		for i := 0; i < 10; i++ {
			if !s.Scan() {
				t.Fatalf("workers %d: scan %d returned false: %v", w, i, s.Err())
			}
		}
		// Close mid-block: the first system's block has arrived and still
		// holds unread records, while the pool generates the next ones.
		if len(s.block.recs) == 0 || s.Record().System != Catalog()[0].ID {
			t.Fatalf("workers %d: after 10 scans, %d records left of system %d's block",
				w, len(s.block.recs), s.Record().System)
		}
		s.Close()
		s.Close() // idempotent
		if s.Scan() {
			t.Fatalf("workers %d: Scan returned true after Close", w)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("workers %d: early close surfaced error: %v", w, err)
		}
		// A pool worker may still be exiting when Close returns.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers %d: %d goroutines before Stream, %d after Close: generator pool leaked", w, before, n)
		}
	}
}

// streamErr opens a Stream over cfg and returns the error it reports,
// failing the test if the first Scan yields a record.
func streamErr(t *testing.T, cfg Config) error {
	t.Helper()
	s := NewGenerator(cfg).Stream()
	defer s.Close()
	if s.Scan() {
		t.Fatalf("Stream yielded record %+v, want an error", s.Record())
	}
	return s.Err()
}

func TestRecordStreamErrors(t *testing.T) {
	unaligned := ExtrapolatedCatalog()
	unaligned[0].Start = unaligned[0].Start.Add(time.Hour)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"rejected catalog", Config{Seed: 1, Catalog: unaligned, RateScale: 0.0001}},
		{"unknown system", Config{Seed: 1, Systems: []int{999}}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 4} {
			tc.cfg.Workers = w
			if err := streamErr(t, tc.cfg); err == nil {
				t.Fatalf("%s, workers %d: Stream ended without an error", tc.name, w)
			}
		}
	}
}

// TestSubsetRejectsUnknownSystems: a Systems ID the active catalog does
// not hold is an error on every entry point, not a silently smaller
// trace.
func TestSubsetRejectsUnknownSystems(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Systems: []int{5, 999}},
		{Seed: 1, Systems: []int{999}},
		// 5 is a Table 1 ID, absent from the extrapolated catalog.
		{Seed: 1, Systems: []int{5}, Catalog: ExtrapolatedCatalog(), RateScale: 0.0001},
	} {
		for _, w := range []int{1, 4} {
			cfg.Workers = w
			if d, err := NewGenerator(cfg).Generate(); err == nil {
				t.Fatalf("Generate(%v, workers %d) returned %d records and no error", cfg.Systems, w, d.Len())
			}
			if err := streamErr(t, cfg); err == nil {
				t.Fatalf("Stream(%v, workers %d) ended without an error", cfg.Systems, w)
			}
		}
	}
}

// streamDigest drains cfg's Stream and returns the sha256 of every
// field of every record, in the system-grouped order trace-scan encodes.
func streamDigest(t *testing.T, cfg Config) string {
	t.Helper()
	s := NewGenerator(cfg).Stream()
	defer s.Close()
	h := sha256.New()
	var buf []byte
	for s.Scan() {
		r := s.Record()
		buf = binary.AppendVarint(buf[:0], int64(r.System))
		buf = binary.AppendVarint(buf, int64(r.Node))
		buf = append(append(buf, r.HW...), 0)
		buf = binary.AppendVarint(buf, int64(r.Workload))
		buf = binary.AppendVarint(buf, int64(r.Cause))
		buf = append(append(buf, r.Detail...), 0)
		for _, tm := range []time.Time{r.Start, r.End} {
			buf = binary.AppendVarint(buf, tm.Unix())
			buf = binary.AppendVarint(buf, int64(tm.Nanosecond()))
		}
		h.Write(buf)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamRecordSequencePins pins Stream's record sequence, field by
// field and in emission order, at rate scale 3 for seeds 1-3 and 1 and 2
// workers, so a change to how the generator builds or orders a system
// block cannot move a record unnoticed.
func TestStreamRecordSequencePins(t *testing.T) {
	pins := map[int64]string{
		1: "31540fee1c0ef54b7ddd8438a680f73b2edb666591c40f2ee0228eb537954ddc",
		2: "c428a1dba067a49d706e7c2b6de4a4f0d062ba333c9bbdf15862f264e19ce0ba",
		3: "78f71548b1c93da31caf3be7f133795cf6ba0a7df2444f140ddc570a87ca81bf",
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, w := range []int{1, 2} {
			if got := streamDigest(t, Config{Seed: seed, RateScale: 3, Workers: w}); got != pins[seed] {
				t.Errorf("seed %d, workers %d: sha256 %s, want %s", seed, w, got, pins[seed])
			}
		}
	}
}

// BenchmarkStream drains a rate-scale-25 Stream (seed 1, about 530k
// records, GOMAXPROCS workers), the generator side of lanlgen -stream
// and of trace-scan's set-up. An op is one whole trace; ns/record is
// the drain's wall time per record.
func BenchmarkStream(b *testing.B) {
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		s := NewGenerator(Config{Seed: 1, RateScale: 25}).Stream()
		for s.Scan() {
			records++
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
