package resilience

import (
	"fmt"
	"sort"
	"time"
)

// FencingPolicy decides which nodes are admissible for scheduling. The
// cluster reports every observed failure and completed repair; Admit is
// consulted each time the scheduler gathers candidates. Implementations
// are stateful and belong to exactly one cluster.
type FencingPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// RecordFailure notes an observed failure of node id at time at.
	RecordFailure(id int, at time.Duration)
	// RecordRepair notes that node id completed repair at time at.
	RecordRepair(id int, at time.Duration)
	// Admit reports whether node id may receive work at time now.
	Admit(id int, now time.Duration) bool
	// FencedNodeHours returns cumulative hours nodes spent up but
	// fenced — capacity the policy sacrificed for stability.
	FencedNodeHours(now time.Duration) float64
}

// NoFencing admits every node unconditionally.
type NoFencing struct{}

var _ FencingPolicy = NoFencing{}

// Name implements FencingPolicy.
func (NoFencing) Name() string { return "no-fencing" }

// RecordFailure implements FencingPolicy.
func (NoFencing) RecordFailure(int, time.Duration) {}

// RecordRepair implements FencingPolicy.
func (NoFencing) RecordRepair(int, time.Duration) {}

// Admit implements FencingPolicy.
func (NoFencing) Admit(int, time.Duration) bool { return true }

// FencedNodeHours implements FencingPolicy.
func (NoFencing) FencedNodeHours(time.Duration) float64 { return 0 }

// nodeFence is WindowFencing's per-node state.
type nodeFence struct {
	failures []time.Duration // observed failure times inside the window
	fenced   bool
	// repaired/probationEnd are valid while the node is fenced and its
	// repair has completed: the node is up but withheld from scheduling
	// until probationEnd.
	repaired     bool
	upSince      time.Duration
	probationEnd time.Duration
	fencedHours  float64 // completed up-but-fenced time, in hours
}

// WindowFencing blacklists a node once it accumulates Threshold observed
// failures inside a sliding Window, then re-admits it on probation: the
// node must survive Probation past its latest repair before it is
// scheduled again, at which point its failure history is wiped. This is
// the classic "K strikes" response to the paper's finding that failures
// are temporally and spatially correlated (Section 4) — a node that just
// failed repeatedly is a bad bet for the next job.
type WindowFencing struct {
	threshold int
	window    time.Duration
	probation time.Duration
	nodes     map[int]*nodeFence
}

var _ FencingPolicy = (*WindowFencing)(nil)

// NewWindowFencing builds a WindowFencing policy fencing nodes after
// threshold failures within window, re-admitting them probation after
// their latest repair.
func NewWindowFencing(threshold int, window, probation time.Duration) (*WindowFencing, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("resilience: fencing threshold %d < 1", threshold)
	}
	if window <= 0 {
		return nil, fmt.Errorf("resilience: non-positive fencing window %v", window)
	}
	if probation < 0 {
		return nil, fmt.Errorf("resilience: negative probation %v", probation)
	}
	return &WindowFencing{
		threshold: threshold,
		window:    window,
		probation: probation,
		nodes:     make(map[int]*nodeFence),
	}, nil
}

// Name implements FencingPolicy.
func (w *WindowFencing) Name() string { return "window-fencing" }

func (w *WindowFencing) state(id int) *nodeFence {
	nf := w.nodes[id]
	if nf == nil {
		nf = &nodeFence{}
		w.nodes[id] = nf
	}
	return nf
}

// RecordFailure implements FencingPolicy.
func (w *WindowFencing) RecordFailure(id int, at time.Duration) {
	nf := w.state(id)
	if nf.fenced && nf.repaired {
		// The node was up on probation and failed again: close the
		// up-but-fenced interval and restart probation at next repair.
		// Capacity past probationEnd was only withheld lazily (no Admit
		// call happened to ask for it), so it does not count as fenced.
		end := at
		if nf.probationEnd < end {
			end = nf.probationEnd
		}
		if end > nf.upSince {
			nf.fencedHours += (end - nf.upSince).Hours()
		}
		nf.repaired = false
	}
	nf.failures = append(nf.failures, at)
	cutoff := at - w.window
	keep := nf.failures[:0]
	for _, f := range nf.failures {
		if f > cutoff {
			keep = append(keep, f)
		}
	}
	nf.failures = keep
	if len(nf.failures) >= w.threshold {
		nf.fenced = true
	}
}

// RecordRepair implements FencingPolicy.
func (w *WindowFencing) RecordRepair(id int, at time.Duration) {
	nf := w.state(id)
	if !nf.fenced {
		return
	}
	nf.repaired = true
	nf.upSince = at
	nf.probationEnd = at + w.probation
}

// Admit implements FencingPolicy.
func (w *WindowFencing) Admit(id int, now time.Duration) bool {
	nf := w.nodes[id]
	if nf == nil || !nf.fenced {
		return true
	}
	if !nf.repaired || now < nf.probationEnd {
		return false
	}
	// Probation served: re-admit with a clean record.
	nf.fencedHours += (nf.probationEnd - nf.upSince).Hours()
	*nf = nodeFence{fencedHours: nf.fencedHours}
	return true
}

// FencedNodeHours implements FencingPolicy.
func (w *WindowFencing) FencedNodeHours(now time.Duration) float64 {
	ids := make([]int, 0, len(w.nodes))
	for id := range w.nodes {
		ids = append(ids, id)
	}
	// Summed in ID order so the float result is reproducible.
	sort.Ints(ids)
	var total float64
	for _, id := range ids {
		nf := w.nodes[id]
		total += nf.fencedHours
		if nf.fenced && nf.repaired {
			end := now
			if nf.probationEnd < end {
				end = nf.probationEnd
			}
			if end > nf.upSince {
				total += (end - nf.upSince).Hours()
			}
		}
	}
	return total
}
