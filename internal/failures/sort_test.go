package failures

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// randomRecords builds n valid records with start times drawn from a
// small window so duplicates are common — the case where stability
// matters. Node carries the original position so stability is checkable
// after sorting.
func randomRecords(rng *rand.Rand, n, window int) []Record {
	rs := make([]Record, n)
	for i := range rs {
		rs[i] = rec(1+rng.Intn(3), i, rng.Intn(window), 1+rng.Intn(60), CauseHardware)
	}
	return rs
}

func assertStableSorted(t *testing.T, label string, got, original []Record) {
	t.Helper()
	want := make([]Record, len(original))
	copy(want, original)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Start.Before(want[j].Start) })
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: got node %d @ %v, want node %d @ %v",
				label, i, got[i].Node, got[i].Start, want[i].Node, want[i].Start)
		}
	}
}

func TestSortByStartMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		original := randomRecords(rng, n, 1+rng.Intn(10))
		assertStableSorted(t, "random", SortedByStart([][]Record{original}), original)
	}
}

func TestSortByStartEdgeCases(t *testing.T) {
	if got := SortedByStart([][]Record{nil}); len(got) != 0 {
		t.Fatalf("nil part produced %d records", len(got))
	}
	one := []Record{rec(1, 0, 5, 1, CauseHardware)}
	if got := SortedByStart([][]Record{one}); len(got) != 1 || got[0] != one[0] {
		t.Fatalf("one record: %v", got)
	}

	// Already sorted: the order comes back unchanged.
	sorted := []Record{rec(1, 0, 1, 1, CauseHardware), rec(1, 1, 2, 1, CauseHardware), rec(1, 2, 2, 1, CauseHardware)}
	got := SortedByStart([][]Record{sorted})
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("sorted input disturbed at %d", i)
		}
	}

	// Reverse order: worst case for the run structure.
	n := 100
	rev := make([]Record, n)
	for i := range rev {
		rev[i] = rec(1, i, n-i, 1, CauseSoftware)
	}
	assertStableSorted(t, "reverse", SortedByStart([][]Record{rev}), rev)

	// All-equal start times: output must preserve input order exactly.
	eq := make([]Record, 50)
	for i := range eq {
		eq[i] = rec(2, i, 7, 1, CauseUnknown)
	}
	got = SortedByStart([][]Record{eq})
	for i := range eq {
		if got[i].Node != eq[i].Node {
			t.Fatalf("equal-key order broken at %d: node %d", i, got[i].Node)
		}
	}
}

// TestSortedByStartMatchesStableSortOfConcatenation: blocks that are
// each sorted, in the form Generate hands over its system blocks, come
// out as the stable sort of their concatenation.
func TestSortedByStartMatchesStableSortOfConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		blocks := make([][]Record, rng.Intn(6))
		var concat []Record
		pos := 0
		for bi := range blocks {
			b := randomRecords(rng, rng.Intn(20), 1+rng.Intn(5))
			for i := range b {
				b[i].Node = pos // stability witness across blocks
				pos++
			}
			b = SortedByStart([][]Record{b})
			blocks[bi] = b
			concat = append(concat, b...)
		}
		got := SortedByStart(blocks)
		assertStableSorted(t, "merge", got, concat)
	}
}

func TestSortedByStartPartsEdgeCases(t *testing.T) {
	// No parts and all-empty parts: an empty, non-nil-safe result.
	if got := SortedByStart(nil); len(got) != 0 {
		t.Fatalf("no parts produced %d records", len(got))
	}
	if got := SortedByStart([][]Record{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("empty parts produced %d records", len(got))
	}

	// Single-record parts interleaved with empties.
	singles := [][]Record{
		{rec(1, 0, 30, 1, CauseHardware)},
		{},
		{rec(1, 1, 10, 1, CauseSoftware)},
		{rec(1, 2, 20, 1, CauseUnknown)},
		nil,
	}
	got := SortedByStart(singles)
	if len(got) != 3 || got[0].Node != 1 || got[1].Node != 2 || got[2].Node != 0 {
		t.Fatalf("single-record order: %v", got)
	}

	// All-equal keys across parts: ties must resolve by part order, then
	// by position within the part, as a stable sort of the concatenation
	// does.
	eq := make([][]Record, 4)
	pos := 0
	var concat []Record
	for bi := range eq {
		b := make([]Record, 5)
		for i := range b {
			b[i] = rec(2, pos, 42, 1, CauseNetwork) // identical start everywhere
			pos++
		}
		eq[bi] = b
		concat = append(concat, b...)
	}
	assertStableSorted(t, "all-equal", SortedByStart(eq), concat)

	// The result is a new slice: sorted input is copied, not aliased.
	in := []Record{rec(1, 0, 1, 1, CauseHardware), rec(1, 1, 2, 1, CauseHardware)}
	out := SortedByStart([][]Record{in})
	out[0].Node = 99
	if in[0].Node != 0 {
		t.Fatal("SortedByStart aliased its input")
	}
}

// at is a record starting at the given instant; node is its stability
// witness.
func at(node int, start time.Time) Record {
	return Record{System: 1, Node: node, HW: "E", Workload: WorkloadCompute, Cause: CauseHardware, Start: start, End: start}
}

// checkParts asserts SortedByStart on parts against sort.SliceStable on
// their concatenation, numbering every record's Node by its position in
// the concatenation first.
func checkParts(t *testing.T, label string, parts [][]Record) {
	t.Helper()
	var concat []Record
	for _, p := range parts {
		for i := range p {
			p[i].Node = len(concat)
			concat = append(concat, p[i])
		}
	}
	assertStableSorted(t, label, SortedByStart(parts), concat)
}

// split cuts rs into parts of the given lengths, cycling through them,
// so parts may be empty and ties fall across part boundaries.
func split(rs []Record, lens ...int) [][]Record {
	var parts [][]Record
	for i := 0; len(rs) > 0; i++ {
		n := min(lens[i%len(lens)], len(rs))
		parts = append(parts, rs[:n])
		rs = rs[n:]
	}
	return parts
}

// TestSortedByStartMatchesSliceStable runs the primitive over the start
// ranges its keys must cover: sub-second starts, starts before 1970 and
// the zero time, spans wider than 2^32 s at whole-second and at
// nanosecond resolution (the latter too wide for one key word), ties
// across part boundaries and part lists with empty parts.
func TestSortedByStartMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	epoch := time.Unix(0, 0).UTC()
	ranges := []struct {
		name  string
		start func() time.Time
	}{
		{"sub-second", func() time.Time {
			return t0.Add(time.Duration(rng.Intn(5))*time.Second + time.Duration(rng.Intn(4))*250*time.Millisecond)
		}},
		{"nanosecond", func() time.Time {
			return t0.Add(time.Duration(rng.Int63n(3e9)))
		}},
		{"millisecond-zones", func() time.Time {
			// Equal instants in different zones are ties.
			tm := t0.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
			if rng.Intn(2) == 0 {
				tm = tm.In(time.FixedZone("X", 3600))
			}
			return tm
		}},
		{"before-1970", func() time.Time {
			return epoch.Add(-time.Duration(rng.Intn(6)) * 1000 * time.Hour)
		}},
		{"zero-time", func() time.Time {
			if rng.Intn(3) == 0 {
				return time.Time{}
			}
			return t0.Add(time.Duration(rng.Intn(3)) * time.Hour)
		}},
		{"span-over-2^32s", func() time.Time {
			return time.Date(1+rng.Intn(4)*3000, 1, 1, 0, 0, rng.Intn(3), 0, time.UTC)
		}},
		{"nanosecond-span-over-2^32s", func() time.Time {
			return time.Date(1+rng.Intn(4)*3000, 1, 1, 0, 0, rng.Intn(3), rng.Intn(3), time.UTC)
		}},
		{"extremes", func() time.Time {
			switch rng.Intn(4) {
			case 0:
				return time.Unix(math.MinInt64/2, 999_999_999)
			case 1:
				return time.Unix(math.MaxInt64/2, 1)
			}
			return time.Time{}.Add(time.Duration(rng.Intn(3)))
		}},
	}
	for _, r := range ranges {
		for trial := 0; trial < 40; trial++ {
			rs := make([]Record, 1+rng.Intn(300))
			for i := range rs {
				rs[i] = at(0, r.start())
			}
			checkParts(t, r.name+"/one part", [][]Record{rs})
			checkParts(t, r.name+"/chunks", split(rs, 1+rng.Intn(16)))
			checkParts(t, r.name+"/empty parts", split(rs, 0, 1+rng.Intn(9), 0, 0, 1+rng.Intn(4)))
		}
	}
}

// TestSortedByStartLargeInput sorts enough records for full-width radix
// digits and several parts of a power-of-two length, the shape of a
// generated system block.
func TestSortedByStartLargeInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rs := make([]Record, 50_000)
	for i := range rs {
		rs[i] = at(0, t0.Add(time.Duration(rng.Intn(1<<28))*time.Second))
	}
	checkParts(t, "seconds", split(rs, 1<<12))
	for i := range rs {
		rs[i].Start = t0.Add(time.Duration(rng.Int63n(1 << 50)))
	}
	checkParts(t, "nanoseconds", split(rs, 1<<8, 1<<14))
}

func TestCSVWriterEdgeCases(t *testing.T) {
	// Zero records: the streamed file is exactly the header line.
	var empty bytes.Buffer
	cw, err := NewCSVWriter(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.Count() != 0 {
		t.Fatalf("Count = %d, want 0", cw.Count())
	}
	if lines := bytes.Count(empty.Bytes(), []byte("\n")); lines != 1 {
		t.Fatalf("empty stream wrote %d lines, want header only:\n%q", lines, empty.String())
	}

	// A single record, flushed twice: Flush is idempotent and the row is
	// not duplicated.
	var one bytes.Buffer
	cw, err = NewCSVWriter(&one)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(rec(1, 7, 5, 3, CauseHardware)); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(one.Bytes(), []byte("\n")); lines != 2 {
		t.Fatalf("single-record stream wrote %d lines, want header + 1 row:\n%q", lines, one.String())
	}
	// The written row must read back as the same record.
	d, err := ReadCSV(bytes.NewReader(one.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.At(0).Node != 7 || d.At(0).Cause != CauseHardware {
		t.Fatalf("read-back of single streamed row: %v", d.Records())
	}
}

func TestNewDatasetSorted(t *testing.T) {
	sorted := []Record{rec(1, 0, 1, 1, CauseHardware), rec(1, 1, 5, 1, CauseSoftware)}
	d, err := NewDatasetSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.At(0).Node != 0 {
		t.Fatalf("unexpected dataset %v", d.Records())
	}

	// Out-of-order input must still come back sorted (fallback path).
	unsorted := []Record{rec(1, 0, 9, 1, CauseHardware), rec(1, 1, 2, 1, CauseSoftware)}
	d, err = NewDatasetSorted(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := d.TimeSpan(); !first.Equal(t0.Add(2 * time.Minute)) {
		t.Fatalf("fallback sort missing: first start %v", first)
	}

	// Validation failures surface exactly as NewDataset's do.
	bad := []Record{{System: -1}}
	if _, err := NewDatasetSorted(bad); err == nil {
		t.Fatal("invalid record accepted")
	}
}

func TestCSVWriterMatchesWriteCSV(t *testing.T) {
	records := []Record{
		rec(1, 0, 1, 30, CauseHardware),
		rec(2, 3, 5, 90, CauseEnvironment),
		rec(1, 1, 9, 15, CauseUnknown),
	}
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := WriteCSV(&whole, d); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	cw, err := NewCSVWriter(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if err := cw.Write(d.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.Count() != d.Len() {
		t.Fatalf("Count = %d, want %d", cw.Count(), d.Len())
	}
	if !bytes.Equal(whole.Bytes(), streamed.Bytes()) {
		t.Fatalf("streamed CSV differs from WriteCSV:\n%q\nvs\n%q", streamed.String(), whole.String())
	}
}
