package failures

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// rec builds a valid record offset from t0 by startMin with the given
// repair duration in minutes.
func rec(system, node int, startMin, repairMin int, cause RootCause) Record {
	return Record{
		System:   system,
		Node:     node,
		HW:       "E",
		Workload: WorkloadCompute,
		Cause:    cause,
		Start:    t0.Add(time.Duration(startMin) * time.Minute),
		End:      t0.Add(time.Duration(startMin+repairMin) * time.Minute),
	}
}

func TestRecordValidate(t *testing.T) {
	good := rec(1, 0, 0, 60, CauseHardware)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Record)
	}{
		{"system zero", func(r *Record) { r.System = 0 }},
		{"node negative", func(r *Record) { r.Node = -1 }},
		{"zero start", func(r *Record) { r.Start = time.Time{} }},
		{"zero end", func(r *Record) { r.End = time.Time{} }},
		{"end before start", func(r *Record) { r.End = r.Start.Add(-time.Hour) }},
		{"bad cause", func(r *Record) { r.Cause = 0 }},
		{"bad workload", func(r *Record) { r.Workload = 99 }},
	}
	for _, tc := range cases {
		r := good
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestCauseAndWorkloadRoundTrip(t *testing.T) {
	for _, c := range Causes() {
		back, err := ParseRootCause(c.String())
		if err != nil || back != c {
			t.Errorf("cause %v: round trip gave %v, %v", c, back, err)
		}
	}
	if _, err := ParseRootCause("bogus"); err == nil {
		t.Error("bogus cause should fail")
	}
	for _, w := range Workloads() {
		back, err := ParseWorkload(w.String())
		if err != nil || back != w {
			t.Errorf("workload %v: round trip gave %v, %v", w, back, err)
		}
	}
	if _, err := ParseWorkload("bogus"); err == nil {
		t.Error("bogus workload should fail")
	}
	if RootCause(77).String() != "RootCause(77)" {
		t.Error("unknown cause String")
	}
	if Workload(77).String() != "Workload(77)" {
		t.Error("unknown workload String")
	}
}

func TestNewDatasetSortsAndValidates(t *testing.T) {
	records := []Record{
		rec(1, 0, 100, 10, CauseHardware),
		rec(1, 1, 50, 10, CauseSoftware),
		rec(2, 0, 75, 10, CauseNetwork),
	}
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	if !d.At(0).Start.Before(d.At(1).Start) || !d.At(1).Start.Before(d.At(2).Start) {
		t.Fatal("records not sorted by start time")
	}
	// Invalid record rejected with index context.
	bad := append(records, Record{})
	if _, err := NewDataset(bad); err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("invalid record: %v", err)
	}
	// Input slice not aliased.
	records[0].System = 99
	if d.At(0).System == 99 || d.At(1).System == 99 || d.At(2).System == 99 {
		t.Fatal("dataset aliases caller slice")
	}
}

func TestFilters(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 10, CauseHardware),
		rec(1, 1, 10, 10, CauseSoftware),
		rec(2, 0, 20, 10, CauseHardware),
	}
	records[2].HW = "G"
	records[1].Workload = WorkloadGraphics
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.BySystem(1).Len(); got != 2 {
		t.Errorf("BySystem(1) = %d", got)
	}
	if got := d.ByNode(1, 1).Len(); got != 1 {
		t.Errorf("ByNode(1,1) = %d", got)
	}
	if got := d.ByHW("G").Len(); got != 1 {
		t.Errorf("ByHW(G) = %d", got)
	}
	if got := d.ByCause(CauseHardware).Len(); got != 2 {
		t.Errorf("ByCause(HW) = %d", got)
	}
	if got := d.ByWorkload(WorkloadGraphics).Len(); got != 1 {
		t.Errorf("ByWorkload(graphics) = %d", got)
	}
	if got := d.Between(t0.Add(5*time.Minute), t0.Add(15*time.Minute)).Len(); got != 1 {
		t.Errorf("Between = %d", got)
	}
	if got := d.Systems(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Systems = %v", got)
	}
	if got := d.Nodes(); len(got) != 2 {
		t.Errorf("Nodes = %v", got)
	}
	if got := d.HWTypes(); len(got) != 2 || got[0] != "E" || got[1] != "G" {
		t.Errorf("HWTypes = %v", got)
	}
}

func TestInterarrivals(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 5, CauseHardware),
		rec(1, 0, 10, 5, CauseHardware),
		rec(1, 0, 10, 5, CauseSoftware), // simultaneous
		rec(1, 0, 40, 5, CauseHardware),
	}
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	ia := d.Interarrivals()
	want := []float64{600, 0, 1800}
	if len(ia) != len(want) {
		t.Fatalf("interarrivals = %v", ia)
	}
	for i := range want {
		if ia[i] != want[i] {
			t.Fatalf("interarrivals = %v, want %v", ia, want)
		}
	}
	pos := d.PositiveInterarrivals()
	if len(pos) != 2 {
		t.Fatalf("positive interarrivals = %v", pos)
	}
	if got := d.ZeroInterarrivalFraction(); got != 1.0/3 {
		t.Fatalf("zero fraction = %g", got)
	}
	// Degenerate sizes.
	empty, err := NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Interarrivals() != nil {
		t.Fatal("empty dataset interarrivals should be nil")
	}
	if empty.ZeroInterarrivalFraction() != 0 {
		t.Fatal("empty dataset zero fraction should be 0")
	}
	single, err := NewDataset(records[:1])
	if err != nil {
		t.Fatal(err)
	}
	if single.Interarrivals() != nil {
		t.Fatal("single record interarrivals should be nil")
	}
}

func TestRepairAndDowntime(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 30, CauseHardware),
		rec(1, 1, 10, 90, CauseSoftware),
		rec(1, 2, 20, 0, CauseHuman), // zero-duration repair is dropped
	}
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	rt := d.RepairTimes()
	if len(rt) != 2 || rt[0] != 30 || rt[1] != 90 {
		t.Fatalf("repair times = %v", rt)
	}
	byCause := d.DowntimeByCause()
	if byCause[CauseHardware] != 30 || byCause[CauseSoftware] != 90 || byCause[CauseHuman] != 0 {
		t.Fatalf("downtime by cause = %v", byCause)
	}
	counts := d.CountByCause()
	if counts[CauseHardware] != 1 || counts[CauseHuman] != 1 {
		t.Fatalf("count by cause = %v", counts)
	}
	nodeCounts := d.CountByNode()
	if nodeCounts[0] != 1 || nodeCounts[1] != 1 || nodeCounts[2] != 1 {
		t.Fatalf("count by node = %v", nodeCounts)
	}
}

func TestCountByDetail(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 5, CauseHardware),
		rec(1, 0, 10, 5, CauseHardware),
		rec(1, 0, 20, 5, CauseSoftware),
	}
	records[0].Detail = "memory"
	records[1].Detail = "memory"
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	got := d.CountByDetail()
	if got["memory"] != 2 || got[""] != 1 {
		t.Fatalf("details = %v", got)
	}
}

func TestTimeSpanAndMerge(t *testing.T) {
	m, err := NewDataset([]Record{rec(1, 0, 100, 5, CauseHardware), rec(2, 0, 0, 5, CauseSoftware)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.At(0).System != 2 {
		t.Fatal("NewDataset should sort merged records by start time")
	}
	first, last, err := m.TimeSpan()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(t0) || !last.Equal(t0.Add(100*time.Minute)) {
		t.Fatalf("span = %v..%v", first, last)
	}
	empty, err := NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.TimeSpan(); err == nil {
		t.Fatal("empty TimeSpan: want error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 30, CauseHardware),
		rec(20, 22, 90, 125, CauseSoftware),
	}
	records[0].Detail = "memory"
	records[1].Workload = WorkloadGraphics
	records[1].HW = "G"
	d, err := NewDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("round trip len = %d", back.Len())
	}
	for i := 0; i < d.Len(); i++ {
		a, b := d.At(i), back.At(i)
		if a.System != b.System || a.Node != b.Node || a.HW != b.HW ||
			a.Workload != b.Workload || a.Cause != b.Cause || a.Detail != b.Detail ||
			!a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"bad header", "a,b,c,d,e,f,g,h\n"},
		{"bad system", "system,node,hw,workload,cause,detail,start,end\nX,0,E,compute,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n"},
		{"bad node", "system,node,hw,workload,cause,detail,start,end\n1,X,E,compute,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n"},
		{"bad workload", "system,node,hw,workload,cause,detail,start,end\n1,0,E,xyz,Hardware,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n"},
		{"bad cause", "system,node,hw,workload,cause,detail,start,end\n1,0,E,compute,Bogus,,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z\n"},
		{"bad start", "system,node,hw,workload,cause,detail,start,end\n1,0,E,compute,Hardware,,not-a-time,2000-01-01T01:00:00Z\n"},
		{"bad end", "system,node,hw,workload,cause,detail,start,end\n1,0,E,compute,Hardware,,2000-01-01T00:00:00Z,nope\n"},
		{"wrong field count", "system,node,hw,workload,cause,detail,start,end\n1,0,E\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestFilterPreservesOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		records := make([]Record, 0, len(offsets))
		for i, off := range offsets {
			records = append(records, rec(1+i%3, i%5, int(off), 10, CauseHardware))
		}
		d, err := NewDataset(records)
		if err != nil {
			return false
		}
		filtered := d.BySystem(1)
		for i := 1; i < filtered.Len(); i++ {
			if filtered.At(i).Start.Before(filtered.At(i - 1).Start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetHours(t *testing.T) {
	d, err := NewDataset([]Record{
		rec(1, 0, -60, 5, CauseHardware), // before origin: dropped
		rec(1, 0, 0, 5, CauseHardware),   // exactly at origin: kept as offset 0
		rec(1, 0, 120, 5, CauseHardware),
		rec(1, 0, 600, 5, CauseHardware),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := d.OffsetHours(t0)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 10 {
		t.Fatalf("offsets = %v, want [0 2 10]", got)
	}
}

// TestOffsetHoursOriginBoundary pins the boundary fix in isolation: a
// record starting exactly at origin is an observed failure at offset
// zero, not a record to silently drop — dropping it biased every trend
// test and event count fed from OffsetHours.
func TestOffsetHoursOriginBoundary(t *testing.T) {
	d, err := NewDataset([]Record{rec(3, 1, 0, 5, CauseSoftware)})
	if err != nil {
		t.Fatal(err)
	}
	got := d.OffsetHours(t0)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("offsets of a record starting at origin = %v, want [0]", got)
	}
	// One nanosecond earlier is before the observation window: dropped.
	if got := d.OffsetHours(t0.Add(time.Nanosecond)); len(got) != 0 {
		t.Fatalf("offsets with origin after the record = %v, want none", got)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	// Randomized round trip: any valid dataset survives encode/decode.
	f := func(raw []uint16) bool {
		records := make([]Record, 0, len(raw))
		causes := Causes()
		workloads := Workloads()
		for i, v := range raw {
			records = append(records, Record{
				System:   1 + int(v%22),
				Node:     int(v % 128),
				HW:       HWType(string(rune('A' + v%8))),
				Workload: workloads[int(v)%len(workloads)],
				Cause:    causes[int(v)%len(causes)],
				Detail:   []string{"", "memory", "cpu"}[int(v)%3],
				Start:    t0.Add(time.Duration(v) * time.Minute),
				End:      t0.Add(time.Duration(int(v)+1+i%500) * time.Minute),
			})
		}
		d, err := NewDataset(records)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if back.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			a, b := d.At(i), back.At(i)
			if a.System != b.System || a.Node != b.Node || a.HW != b.HW ||
				a.Workload != b.Workload || a.Cause != b.Cause ||
				a.Detail != b.Detail || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
