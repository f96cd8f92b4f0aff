package lanl

import (
	"math"
	"reflect"
	"testing"
	"time"

	"hpcfail/internal/failures"
)

func TestExtrapolatedCatalogShape(t *testing.T) {
	cat := ExtrapolatedCatalog()
	if err := ValidateCatalog(cat); err != nil {
		t.Fatalf("ValidateCatalog: %v", err)
	}
	eras, classes := Eras(), ScaleClasses()
	if want := len(eras) * len(classes); len(cat) != want {
		t.Fatalf("%d systems, want %d", len(cat), want)
	}
	table1 := make(map[int]bool)
	for _, s := range Catalog() {
		table1[s.ID] = true
	}
	i := 0
	for e, era := range eras {
		for c, nodes := range classes {
			s := cat[i]
			i++
			if s.ID != ExtrapolatedID(e, c) {
				t.Errorf("system %d/%d: ID %d, want %d", e, c, s.ID, ExtrapolatedID(e, c))
			}
			if table1[s.ID] {
				t.Errorf("extrapolated ID %d collides with Table 1", s.ID)
			}
			if s.Nodes != nodes {
				t.Errorf("system %d: %d nodes, want %d", s.ID, s.Nodes, nodes)
			}
			if s.Procs != nodes*era.ProcsPerNode {
				t.Errorf("system %d: %d procs, want %d", s.ID, s.Procs, nodes*era.ProcsPerNode)
			}
			if s.HW != era.HW {
				t.Errorf("system %d: HW %q, want %q", s.ID, s.HW, era.HW)
			}
			// The profile fast path requires UTC-midnight window starts,
			// like every Table 1 window.
			if !profileAligned(s.Start) || !profileAligned(s.End) {
				t.Errorf("system %d: window [%v, %v] not UTC-midnight aligned", s.ID, s.Start, s.End)
			}
			if y := s.ProductionYears(); y < 4.9 || y > 5.1 {
				t.Errorf("system %d: %.2f production years, want ~5", s.ID, y)
			}
		}
	}
}

func TestValidateCatalogRejects(t *testing.T) {
	// Table 1 itself must pass: the generator validates it on every run,
	// and the table-driven profile depends on its UTC-midnight starts.
	if err := ValidateCatalog(Catalog()); err != nil {
		t.Fatalf("ValidateCatalog rejects Table 1: %v", err)
	}
	good := ExtrapolatedCatalog()
	mutate := func(f func([]System)) []System {
		cat := append([]System(nil), good...)
		for i := range cat {
			cat[i].Categories = append([]NodeCategory(nil), cat[i].Categories...)
		}
		f(cat)
		return cat
	}
	cases := []struct {
		name string
		cat  []System
	}{
		{"empty", nil},
		{"duplicate ID", mutate(func(c []System) { c[1].ID = c[0].ID })},
		{"zero ID", mutate(func(c []System) { c[0].ID = 0 })},
		{"unknown hardware", mutate(func(c []System) { c[0].HW = "Z" })},
		{"empty window", mutate(func(c []System) { c[0].End = c[0].Start })},
		{"start not UTC midnight", mutate(func(c []System) { c[0].Start = c[0].Start.Add(time.Hour) })},
		{"node mismatch", mutate(func(c []System) { c[0].Categories[0].Nodes-- })},
		{"proc mismatch", mutate(func(c []System) { c[0].Procs++ })},
		{"start before the nanosecond range", mutate(func(c []System) { c[0].Start = date(1677, 9) })},
		{"end past the nanosecond range", mutate(func(c []System) { c[0].Start, c[0].End = date(2261, 1), date(2262, 1) })},
		{"more nodes than int32", mutate(func(c []System) {
			c[0].Nodes, c[0].Procs = math.MaxInt32+1, math.MaxInt32+1
			c[0].Categories[0].Nodes, c[0].Categories[0].ProcsPerNode = math.MaxInt32+1, 1
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateCatalog(tc.cat); err == nil {
				t.Fatalf("ValidateCatalog accepted a catalog with %s", tc.name)
			}
			if len(tc.cat) == 0 {
				// An empty Config.Catalog means "use Table 1", not an error.
				return
			}
			cfg := Config{Seed: 1, Catalog: tc.cat, RateScale: 0.0001}
			if _, err := NewGenerator(cfg).Generate(); err == nil {
				t.Fatalf("Generate accepted a catalog with %s", tc.name)
			}
			if err := streamErr(t, cfg); err == nil {
				t.Fatalf("Stream accepted a catalog with %s", tc.name)
			}
		})
	}
}

// TestExtrapolatedGenerate runs the generator over the smallest
// projected machine at a tiny rate scale and checks the records respect
// the extrapolated geometry and window.
func TestExtrapolatedGenerate(t *testing.T) {
	cat := ExtrapolatedCatalog()
	id := ExtrapolatedID(0, 0) // 10k-node petascale machine
	cfg := Config{Seed: 7, Catalog: cat, Systems: []int{id}, RateScale: 0.002, Workers: 1}
	d, err := NewGenerator(cfg).Generate()
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("no records generated")
	}
	sys := cat[0]
	for _, r := range d.Records() {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if r.System != id {
			t.Fatalf("record for system %d, want %d", r.System, id)
		}
		if r.Node < 0 || r.Node >= sys.Nodes {
			t.Fatalf("node %d outside the %d-node machine", r.Node, sys.Nodes)
		}
		if r.HW != sys.HW {
			t.Fatalf("record HW %q, want %q", r.HW, sys.HW)
		}
		if r.Start.Before(sys.Start) || !r.Start.Before(sys.End) {
			t.Fatalf("record at %v outside production window [%v, %v)", r.Start, sys.Start, sys.End)
		}
	}
	t.Logf("system %d: %d records at rate scale %v", id, d.Len(), cfg.RateScale)
}

// TestExtrapolatedDeterminism pins the worker-count invariance the
// default catalog already guarantees onto replacement catalogs.
func TestExtrapolatedDeterminism(t *testing.T) {
	cat := ExtrapolatedCatalog()
	run := func(workers int) *failures.Dataset {
		d, err := NewGenerator(Config{
			Seed: 11, Catalog: cat, RateScale: 0.0002, Workers: workers,
		}).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq, par := run(1), run(4)
	if seq.Len() == 0 {
		t.Fatal("no records generated")
	}
	if !reflect.DeepEqual(seq.Records(), par.Records()) {
		t.Fatalf("extrapolated generation differs between 1 and 4 workers (%d vs %d records)",
			seq.Len(), par.Len())
	}
	systems := make(map[int]int)
	for _, r := range seq.Records() {
		systems[r.System]++
	}
	if len(systems) != len(cat) {
		t.Fatalf("records from %d systems, want all %d", len(systems), len(cat))
	}
}

// TestCatalogOverrideLeavesDefaultUntouched guards the frozen oracle:
// a Config without Catalog generates the same records after this PR as
// before it (spot-checked against RefGenerate, the frozen reference).
func TestCatalogOverrideLeavesDefaultUntouched(t *testing.T) {
	cfg := Config{Seed: 5, Systems: []int{4, 21}, Workers: 1}
	got, err := NewGenerator(cfg).Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := RefGenerate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Fatalf("default-catalog generation drifted from the frozen reference (%d vs %d records)",
			got.Len(), want.Len())
	}
}
