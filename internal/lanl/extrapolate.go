package lanl

import (
	"fmt"
	"math"
	"time"

	"hpcfail/internal/failures"
)

// This file projects the Table 1 catalog forward, the way Tan &
// DeBardeleben's "Failure Analysis and Quantification for Contemporary
// and Future Supercomputers" scales the paper's per-processor failure
// models to 10k–100k+-node machines (PAPERS.md). Nothing here invents
// new physics: every extrapolated system inherits a Table 1 hardware
// calibration (per-processor-year rate, lifecycle curve, cause mix,
// repair-time parameters) verbatim, and only the machine geometry —
// node count, processors per node, production window — is scaled. The
// existing profile/era machinery validates the result: the windows are
// UTC-midnight aligned so the table-driven profile fast path applies,
// and the generator treats an extrapolated catalog exactly like the
// measured one (Config.Catalog).

// Era is one projected deployment era: a production window plus the
// Table 1 hardware calibration its machines inherit.
type Era struct {
	// Name labels the era ("petascale", "pre-exascale", "exascale").
	Name string
	// HW is the Table 1 hardware type (A–H) whose calibration the era's
	// machines reuse.
	HW failures.HWType
	// ProcsPerNode is the era's node width; total failure rate scales
	// with Nodes × ProcsPerNode through the per-processor-year rates.
	ProcsPerNode int
	// MemGB is main memory per node in GB.
	MemGB int
	// StartYear and EndYear bound the era's production window
	// (January 1 UTC of each, via the catalog's date helper).
	StartYear, EndYear int
}

// Eras returns the three projected eras. The hardware assignments keep
// the narrative of Table 1: petascale machines look like the type F
// commodity clusters (memory-dominant hardware failures, parallel-FS
// software failures), pre-exascale like the type E large SMP clusters,
// and exascale like the type H fat NUMA nodes (memory >25% of failures,
// scheduler-dominant software failures), whose per-processor rate is
// the catalog's lowest — the reliability improvement every exascale
// projection assumes.
func Eras() []Era {
	return []Era{
		{Name: "petascale", HW: "F", ProcsPerNode: 8, MemGB: 32, StartYear: 2008, EndYear: 2013},
		{Name: "pre-exascale", HW: "E", ProcsPerNode: 32, MemGB: 128, StartYear: 2015, EndYear: 2020},
		{Name: "exascale", HW: "H", ProcsPerNode: 128, MemGB: 512, StartYear: 2022, EndYear: 2027},
	}
}

// ScaleClasses are the projected machine sizes, in nodes.
func ScaleClasses() []int { return []int{10_000, 50_000, 100_000} }

// ExtrapolatedID is the system ID of the class-th machine (0-based) of
// the era-th era (0-based): 101, 102, 103, 201, … — disjoint from the
// Table 1 IDs 1–22 and stable across calls.
func ExtrapolatedID(era, class int) int { return 100*(era+1) + class + 1 }

// ExtrapolatedCatalog returns one system per (era × scale class):
// nine machines from 10k petascale nodes to a 100k-node exascale
// system. Pass it as Config.Catalog to generate projected traces; the
// Table 1 catalog and its frozen seed-1 oracle are untouched.
func ExtrapolatedCatalog() []System {
	var systems []System
	for e, era := range Eras() {
		for c, nodes := range ScaleClasses() {
			s := System{
				ID:    ExtrapolatedID(e, c),
				HW:    era.HW,
				Nodes: nodes,
				Procs: nodes * era.ProcsPerNode,
				NUMA:  era.HW == "G" || era.HW == "H",
				Start: date(era.StartYear, 1),
				End:   date(era.EndYear, 1),
				Categories: []NodeCategory{{
					Nodes:        nodes,
					ProcsPerNode: era.ProcsPerNode,
					MemGB:        era.MemGB,
					NICs:         2,
					Start:        date(era.StartYear, 1),
					End:          date(era.EndYear, 1),
				}},
			}
			// Same convention as the Table 1 catalog: on multi-node
			// non-NUMA clusters node 0 carries the front-end workload.
			if !s.NUMA && s.Nodes > 1 {
				s.FrontendNodes = []int{0}
			}
			systems = append(systems, s)
		}
	}
	return systems
}

// The generator's compact records hold times as int64 epoch nanoseconds
// and node IDs as int32 (generate.go). A window's starts must fall in
// that range, and so must its ends, which repair can carry up to
// maxRepairMinutes past the window's close.
var (
	earliestStart = time.Unix(0, math.MinInt64)
	latestEnd     = time.Unix(0, math.MaxInt64).Add(-maxRepairMinutes * time.Minute)
)

// ValidateCatalog checks a catalog before generation: distinct positive
// IDs, consistent node/processor geometry, a known hardware calibration,
// a non-empty production window that starts at a UTC midnight, which
// the generator's table-driven intensity profile requires (profile.go),
// and a window and node count the generator's compact records can
// represent: every start, and every end up to 180 days of repair after
// the window closes, within the int64 epoch-nanosecond range (about
// 1678–2262), and at most math.MaxInt32 nodes. Catalog and
// ExtrapolatedCatalog always pass; the generator runs this check on
// whichever catalog Config selects before any system starts.
func ValidateCatalog(systems []System) error {
	if len(systems) == 0 {
		return fmt.Errorf("lanl: empty catalog")
	}
	hw := hwTable()
	seen := make(map[int]bool, len(systems))
	for _, s := range systems {
		if s.ID <= 0 {
			return fmt.Errorf("lanl: system ID %d not positive", s.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("lanl: duplicate system ID %d", s.ID)
		}
		seen[s.ID] = true
		if _, ok := hw[s.HW]; !ok {
			return fmt.Errorf("lanl: system %d: no calibration for hardware type %q", s.ID, s.HW)
		}
		if !s.End.After(s.Start) {
			return fmt.Errorf("lanl: system %d: production window [%v, %v] is empty", s.ID, s.Start, s.End)
		}
		if !profileAligned(s.Start) {
			return fmt.Errorf("lanl: system %d: production window starts at %v, not a UTC midnight", s.ID, s.Start)
		}
		if s.Start.Before(earliestStart) || s.End.After(latestEnd) {
			return fmt.Errorf("lanl: system %d: production window [%v, %v] plus 180 days of repair leaves the epoch-nanosecond range [%v, %v]",
				s.ID, s.Start, s.End, earliestStart.UTC(), latestEnd.UTC())
		}
		if s.Nodes > math.MaxInt32 {
			return fmt.Errorf("lanl: system %d: %d nodes, max %d", s.ID, s.Nodes, math.MaxInt32)
		}
		nodes, procs := 0, 0
		for _, c := range s.Categories {
			nodes += c.Nodes
			procs += c.Nodes * c.ProcsPerNode
		}
		if nodes != s.Nodes {
			return fmt.Errorf("lanl: system %d: categories sum to %d nodes, want %d", s.ID, nodes, s.Nodes)
		}
		if procs != s.Procs {
			return fmt.Errorf("lanl: system %d: categories sum to %d procs, want %d", s.ID, procs, s.Procs)
		}
	}
	return nil
}
