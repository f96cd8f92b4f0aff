package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/stats"
)

// expSafe exponentiates a lognormal mu bound into median space.
func expSafe(v float64) float64 {
	if math.IsNaN(v) {
		return math.NaN()
	}
	return math.Exp(v)
}

// ShardKey identifies one shard of the failure trace: a system crossed with
// an optional workload (the record-level stand-in for node category) and an
// optional root cause. Zero values mean "all".
type ShardKey struct {
	// System is the system ID; 0 aggregates all systems.
	System int
	// Workload restricts to one node workload class; 0 means all.
	Workload failures.Workload
	// Cause restricts to one root cause; 0 means all.
	Cause failures.RootCause
}

// String renders the key as "system 20 / graphics / Hardware" with "all"
// for unrestricted dimensions.
func (k ShardKey) String() string {
	sys := "fleet"
	if k.System != 0 {
		sys = fmt.Sprintf("system %d", k.System)
	}
	wl := "all"
	if k.Workload != 0 {
		wl = k.Workload.String()
	}
	cause := "all"
	if k.Cause != 0 {
		cause = k.Cause.String()
	}
	return sys + " / " + wl + " / " + cause
}

// ShardSpec controls how AnalyzeFleet shards the trace and what it fits.
type ShardSpec struct {
	// ByWorkload adds one shard per (system, workload) present.
	ByWorkload bool
	// ByCause adds one shard per (system, root cause) present.
	ByCause bool
	// IncludeFleet prepends the all-systems aggregate shard.
	IncludeFleet bool
	// Families are the families fitted to each shard; nil uses the paper's
	// standard four.
	Families []dist.Family
	// CIFamilies are the families that get bootstrap confidence intervals
	// on every parameter; nil uses Families. Intervals are skipped when the
	// engine's BootstrapReps is negative.
	CIFamilies []dist.Family
	// MinN is the minimum sample size to attempt fitting; <= 0 uses 10
	// (the threshold the paper-facing analyses use).
	MinN int
}

func (s ShardSpec) families() []dist.Family {
	if len(s.Families) == 0 {
		return dist.StandardFamilies()
	}
	return s.Families
}

func (s ShardSpec) ciFamilies() []dist.Family {
	if s.CIFamilies == nil {
		return s.families()
	}
	return s.CIFamilies
}

func (s ShardSpec) minN() int {
	if s.MinN <= 0 {
		return 10
	}
	return s.MinN
}

// Study is the fitted view of one sample within a shard: descriptive
// statistics, the ranked family comparison and per-family bootstrap
// confidence intervals for every fitted parameter.
type Study struct {
	// N is the sample size.
	N int
	// Summary describes the sample.
	Summary stats.Summary
	// Fits ranks the fitted families by NLL, best first.
	Fits *dist.Comparison
	// CIs maps each requested, successfully fitted family to the bootstrap
	// confidence intervals of its parameters.
	CIs map[dist.Family][]dist.ParamCI
}

// WeibullShapeCI returns the Weibull shape interval if the study fitted a
// Weibull with intervals attached.
func (s *Study) WeibullShapeCI() (dist.ParamCI, bool) {
	if s == nil {
		return dist.ParamCI{}, false
	}
	for _, ci := range s.CIs[dist.FamilyWeibull] {
		if ci.Name == "shape" {
			return ci, true
		}
	}
	return dist.ParamCI{}, false
}

// LogNormalMedianCI returns the lognormal median (exp mu) with its interval
// if the study fitted a lognormal with intervals attached.
func (s *Study) LogNormalMedianCI() (dist.ParamCI, bool) {
	if s == nil {
		return dist.ParamCI{}, false
	}
	for _, ci := range s.CIs[dist.FamilyLogNormal] {
		if ci.Name == "mu" {
			return dist.ParamCI{
				Name:     "median",
				Estimate: expSafe(ci.Estimate),
				Lo:       expSafe(ci.Lo),
				Hi:       expSafe(ci.Hi),
			}, true
		}
	}
	return dist.ParamCI{}, false
}

// ShardResult is the analysis of one shard: the fitted studies of its
// time-between-failure and time-to-repair samples.
type ShardResult struct {
	Key ShardKey
	// Records is the shard's record count.
	Records int
	// Interarrival studies the positive interarrival seconds; nil when the
	// shard has fewer than MinN of them.
	Interarrival *Study
	// Repair studies the repair minutes; nil when too few.
	Repair *Study
	// Err records a shard whose fitting failed outright.
	Err error
}

// FleetResult is the deterministic merge of every shard's analysis, in
// shard-enumeration order (fleet aggregate first, then systems ascending,
// each followed by its workload and cause sub-shards).
type FleetResult struct {
	Shards []ShardResult
}

// Shard returns the result for a key, if present.
func (r *FleetResult) Shard(key ShardKey) (ShardResult, bool) {
	for _, s := range r.Shards {
		if s.Key == key {
			return s, true
		}
	}
	return ShardResult{}, false
}

// shardOrder enumerates the shards present as keys of m in the canonical
// order: fleet aggregate first, then systems ascending, each followed by
// its workload shards (in Workloads() order) and cause shards (in Causes()
// order). AnalyzeFleet, AnalyzeStream and Incremental all merge in this
// order, so their results line up shard for shard.
func shardOrder[V any](m map[ShardKey]V, spec ShardSpec) []ShardKey {
	var systems []int
	for key := range m {
		if key.System != 0 && key.Workload == 0 && key.Cause == 0 {
			systems = append(systems, key.System)
		}
	}
	sort.Ints(systems)
	var keys []ShardKey
	if spec.IncludeFleet {
		if _, ok := m[ShardKey{}]; ok {
			keys = append(keys, ShardKey{})
		}
	}
	for _, id := range systems {
		keys = append(keys, ShardKey{System: id})
		if spec.ByWorkload {
			for _, w := range failures.Workloads() {
				if _, ok := m[ShardKey{System: id, Workload: w}]; ok {
					keys = append(keys, ShardKey{System: id, Workload: w})
				}
			}
		}
		if spec.ByCause {
			for _, c := range failures.Causes() {
				if _, ok := m[ShardKey{System: id, Cause: c}]; ok {
					keys = append(keys, ShardKey{System: id, Cause: c})
				}
			}
		}
	}
	return keys
}

// fleetShardSizes counts each shard's records in one dataset pass, using
// the same per-record fanout the streaming path folds with. Its keys are
// exactly the shards holding records; the counts only order the dispatch
// and never influence a result.
func fleetShardSizes(d *failures.Dataset, spec ShardSpec) map[ShardKey]int {
	counts := make(map[ShardKey]int)
	var ks [4]ShardKey
	for i := 0; i < d.Len(); i++ {
		r := d.At(i)
		n := shardKeysFor(spec, ShardKey{System: r.System, Workload: r.Workload, Cause: r.Cause}, &ks)
		for _, k := range ks[:n] {
			counts[k]++
		}
	}
	return counts
}

// slice filters the dataset down to one shard.
func slice(d *failures.Dataset, key ShardKey) *failures.Dataset {
	return d.Filter(func(r failures.Record) bool {
		if key.System != 0 && r.System != key.System {
			return false
		}
		if key.Workload != 0 && r.Workload != key.Workload {
			return false
		}
		if key.Cause != 0 && r.Cause != key.Cause {
			return false
		}
		return true
	})
}

// AnalyzeFleet shards the trace per spec and fans the fitting —
// interarrival and repair-time model comparisons plus bootstrap confidence
// intervals — out across the engine's worker pool as sub-shard tasks
// (per-family fit tasks and per-rep-block bootstrap tasks, largest shard
// dispatched first). Results merge in shard order, so the output is
// identical at any worker count. The context cancels the run between
// tasks.
func (e *Engine) AnalyzeFleet(ctx context.Context, d *failures.Dataset, spec ShardSpec) (*FleetResult, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("engine analyze fleet: %w", failures.ErrNoRecords)
	}
	sizes := fleetShardSizes(d, spec)
	keys := shardOrder(sizes, spec)
	jobs := make([]*shardJob, len(keys))
	for i, key := range keys {
		jobs[i] = &shardJob{pos: i, key: key, size: sizes[key]}
	}
	if err := e.analyzeJobs(ctx, jobs, d, spec); err != nil {
		return nil, err
	}
	results := make([]ShardResult, len(jobs))
	for i, j := range jobs {
		results[i] = j.res
	}
	return &FleetResult{Shards: results}, nil
}
