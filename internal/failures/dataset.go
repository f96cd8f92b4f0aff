package failures

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrNoRecords is returned by operations that need a non-empty dataset.
var ErrNoRecords = errors.New("failures: no records")

// Dataset is an immutable, time-ordered collection of failure records.
type Dataset struct {
	records []Record
}

// NewDataset validates, copies and time-orders the given records.
func NewDataset(records []Record) (*Dataset, error) {
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("dataset record %d: %w", i, err)
		}
	}
	return &Dataset{records: SortedByStart([][]Record{records})}, nil
}

// NewDatasetSorted is NewDataset for records already in non-decreasing
// start-time order: it validates and takes ownership of the slice, paying
// neither the copy nor the sort. Order is verified in the same validation
// pass; out-of-order input falls back to the stable sort, so the result
// is a valid Dataset either way. The caller must not use the slice after
// handing it over.
func NewDatasetSorted(records []Record) (*Dataset, error) {
	sorted := true
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("dataset record %d: %w", i, err)
		}
		if i > 0 && r.Start.Before(records[i-1].Start) {
			sorted = false
		}
	}
	if !sorted {
		records = SortedByStart([][]Record{records})
	}
	return &Dataset{records: records}, nil
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Records returns a copy of the records in start-time order.
func (d *Dataset) Records() []Record {
	out := make([]Record, len(d.records))
	copy(out, d.records)
	return out
}

// At returns the i-th record in start-time order.
func (d *Dataset) At(i int) Record { return d.records[i] }

// Filter returns a new Dataset of the records satisfying keep. Order is
// preserved, so the result needs no re-sort.
func (d *Dataset) Filter(keep func(Record) bool) *Dataset {
	var out []Record
	for _, r := range d.records {
		if keep(r) {
			out = append(out, r)
		}
	}
	return &Dataset{records: out}
}

// BySystem returns the records of one system.
func (d *Dataset) BySystem(system int) *Dataset {
	return d.Filter(func(r Record) bool { return r.System == system })
}

// ByNode returns the records of one node of one system.
func (d *Dataset) ByNode(system, node int) *Dataset {
	return d.Filter(func(r Record) bool { return r.System == system && r.Node == node })
}

// ByHW returns the records of all systems with the given hardware type.
func (d *Dataset) ByHW(hw HWType) *Dataset {
	return d.Filter(func(r Record) bool { return r.HW == hw })
}

// ByCause returns the records with the given root cause.
func (d *Dataset) ByCause(c RootCause) *Dataset {
	return d.Filter(func(r Record) bool { return r.Cause == c })
}

// ByWorkload returns the records whose node ran the given workload.
func (d *Dataset) ByWorkload(w Workload) *Dataset {
	return d.Filter(func(r Record) bool { return r.Workload == w })
}

// Between returns records whose start time falls in [from, to).
func (d *Dataset) Between(from, to time.Time) *Dataset {
	return d.Filter(func(r Record) bool {
		return !r.Start.Before(from) && r.Start.Before(to)
	})
}

// Systems returns the sorted distinct system IDs present.
func (d *Dataset) Systems() []int {
	seen := make(map[int]bool)
	for _, r := range d.records {
		seen[r.System] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Nodes returns the sorted distinct node IDs present (for one system's
// dataset; on mixed datasets it unions node IDs across systems).
func (d *Dataset) Nodes() []int {
	seen := make(map[int]bool)
	for _, r := range d.records {
		seen[r.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// HWTypes returns the sorted distinct hardware types present.
func (d *Dataset) HWTypes() []HWType {
	seen := make(map[HWType]bool)
	for _, r := range d.records {
		seen[r.HW] = true
	}
	out := make([]HWType, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TimeSpan returns the earliest start and latest start in the dataset.
func (d *Dataset) TimeSpan() (first, last time.Time, err error) {
	if len(d.records) == 0 {
		return time.Time{}, time.Time{}, ErrNoRecords
	}
	return d.records[0].Start, d.records[len(d.records)-1].Start, nil
}

// Interarrivals returns the time between consecutive failure start times in
// seconds, the quantity Figure 6 fits distributions to. For a per-node view
// filter with ByNode first; for the system-wide view use BySystem. Zero
// interarrivals (simultaneous failures) are retained: their frequency is
// itself a finding of the paper (Section 5.3).
func (d *Dataset) Interarrivals() []float64 {
	if len(d.records) < 2 {
		return nil
	}
	out := make([]float64, 0, len(d.records)-1)
	for i := 1; i < len(d.records); i++ {
		out = append(out, d.records[i].Start.Sub(d.records[i-1].Start).Seconds())
	}
	return out
}

// PositiveInterarrivals returns interarrival times with zeros removed, the
// form required for fitting positive-support distributions.
func (d *Dataset) PositiveInterarrivals() []float64 {
	all := d.Interarrivals()
	out := make([]float64, 0, len(all))
	for _, x := range all {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// ZeroInterarrivalFraction returns the fraction of interarrival times that
// are exactly zero — the simultaneous-failure indicator of Section 5.3.
func (d *Dataset) ZeroInterarrivalFraction() float64 {
	all := d.Interarrivals()
	if len(all) == 0 {
		return 0
	}
	zeros := 0
	for _, x := range all {
		if x == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(all))
}

// RepairTimes returns every record's downtime in minutes, the unit of
// Table 2 and Figure 7. Non-positive repair times are dropped (a handful of
// same-minute repairs cannot be fitted by positive-support distributions).
func (d *Dataset) RepairTimes() []float64 {
	out := make([]float64, 0, len(d.records))
	for _, r := range d.records {
		m := r.Downtime().Minutes()
		if m > 0 {
			out = append(out, m)
		}
	}
	return out
}

// CountByCause returns the number of records per root-cause category.
func (d *Dataset) CountByCause() map[RootCause]int {
	out := make(map[RootCause]int)
	for _, r := range d.records {
		out[r.Cause]++
	}
	return out
}

// DowntimeByCause returns the total downtime in minutes per root-cause
// category, summed in record order. The sums are float minutes, as in the
// streaming fold: a time.Duration sum wraps past about 292 years, which a
// large trace's per-cause downtime exceeds.
func (d *Dataset) DowntimeByCause() map[RootCause]float64 {
	out := make(map[RootCause]float64)
	for _, r := range d.records {
		out[r.Cause] += r.Downtime().Minutes()
	}
	return out
}

// CountByNode returns, for each node ID present, the number of records.
func (d *Dataset) CountByNode() map[int]int {
	out := make(map[int]int)
	for _, r := range d.records {
		out[r.Node]++
	}
	return out
}

// CountByDetail returns the number of records per low-level root-cause
// detail string (e.g. "memory", "cpu"). Records without detail are grouped
// under the empty string.
func (d *Dataset) CountByDetail() map[string]int {
	out := make(map[string]int)
	for _, r := range d.records {
		out[r.Detail]++
	}
	return out
}

// Merge combines several datasets into one time-ordered dataset.
func Merge(ds ...*Dataset) *Dataset {
	parts := make([][]Record, len(ds))
	for i, d := range ds {
		parts[i] = d.records
	}
	return &Dataset{records: SortedByStart(parts)}
}

// OffsetHours returns each record's start time as hours since origin,
// keeping only non-negative offsets — the event-time form consumed by
// trend tests and power-law fits. A record starting exactly at origin is
// an event at time zero, not a record to drop: production windows start
// at UTC midnights, so real traces do land failures on the origin
// itself. Records starting before origin are outside the observation
// window and are excluded.
func (d *Dataset) OffsetHours(origin time.Time) []float64 {
	out := make([]float64, 0, len(d.records))
	for _, r := range d.records {
		if h := r.Start.Sub(origin).Hours(); h >= 0 {
			out = append(out, h)
		}
	}
	return out
}
