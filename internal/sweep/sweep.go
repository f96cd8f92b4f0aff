package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"

	"hpcfail/internal/par"
	"hpcfail/internal/randx"
	"hpcfail/internal/sim"
	"hpcfail/internal/stats"
	"hpcfail/internal/streamstats"
)

// BaseConfig fixes the workload shared by every configuration a sweep
// evaluates: the policy axes vary, the job stream does not.
type BaseConfig struct {
	// Jobs and NodesPerJob shape the job stream.
	Jobs, NodesPerJob int
	// WorkHours is useful work per job; CheckpointCost and RestartCost
	// are the overheads in hours.
	WorkHours, CheckpointCost, RestartCost float64
	// HorizonHours bounds every simulation.
	HorizonHours float64
	// Scheduler is the scheduling policy token ("" = first-fit).
	Scheduler string
	// MaxRetries bounds re-runs per job for retrying policies.
	MaxRetries int
}

// DefaultBase returns the workload used by cmd/sweep unless overridden:
// checkpointed 250-hour jobs on 2-node allocations over a 2000-hour
// horizon, with enough backlog (160 jobs, 80k demanded node-hours) to
// oversubscribe even the largest default profile (64k node-hours). An
// oversubscribed queue keeps the cluster busy for the whole horizon, so
// goodput measures how efficiently each policy converts capacity into
// finished work instead of saturating at total-submitted-work.
func DefaultBase() BaseConfig {
	return BaseConfig{
		Jobs: 160, NodesPerJob: 2,
		WorkHours: 250, CheckpointCost: 0.25, RestartCost: 0.25,
		HorizonHours: 2000, Scheduler: "first-fit", MaxRetries: 8,
	}
}

// Options configures a sweep run.
type Options struct {
	// Profiles are the system families to sweep (nil = DefaultProfiles).
	Profiles []SystemProfile
	// Grid is the policy grid (nil = all-defaults 1-point grid).
	Grid *Grid
	// Base is the fixed workload (zero value = DefaultBase).
	Base BaseConfig
	// Seeds is the number of seed replicates per configuration (>= 1).
	Seeds int
	// Workers bounds the worker pool (0 = GOMAXPROCS). The worker count
	// never affects results, only wall clock.
	Workers int
	// Seed is the master seed every replicate/bootstrap seed derives from.
	Seed int64
	// BootstrapReps and Level configure the percentile-bootstrap
	// confidence intervals over seed replicates (defaults 200, 0.95).
	BootstrapReps int
	Level         float64
	// Refine enables optimizer refinement around each profile's grid
	// winner.
	Refine bool
}

// Aggregate is a replicate-aggregated metric: the mean over seed
// replicates with a seeded percentile-bootstrap confidence interval.
type Aggregate struct {
	Mean, Lo, Hi float64
}

// PointResult aggregates one grid point over all seed replicates.
type PointResult struct {
	Point
	// Goodput is the objective: useful work delivered per node-hour of
	// capacity.
	Goodput Aggregate
	// Availability is mean node availability; LostWorkHours the work
	// discarded by rollbacks plus detection lag.
	Availability  Aggregate
	LostWorkHours Aggregate
	// CompletedMean and AbandonedMean average job counts over replicates;
	// InjectedMean averages scenario-injected faults.
	CompletedMean, AbandonedMean, InjectedMean float64
}

// ProfileResult is one system family's sweep outcome.
type ProfileResult struct {
	Profile SystemProfile
	// Points holds every grid point's aggregates in enumeration order.
	Points []PointResult
	// BestIndex is the grid winner: highest mean goodput, ties broken by
	// lowest index.
	BestIndex int
	// RefinedInterval and RefinedPolicy are the optimizer refinements
	// around the winner (nil when refinement is disabled or inapplicable).
	RefinedInterval *RefineResult
	RefinedPolicy   *RefineResult
}

// Result is a complete sweep outcome.
type Result struct {
	Profiles []ProfileResult
	// Grid is the enumerated grid (ranges expanded).
	Grid *Grid
	// Seeds, Seed, BootstrapReps and Level echo the options that shape
	// the numbers (worker count deliberately excluded: it must not).
	Seeds         int
	Seed          int64
	BootstrapReps int
	Level         float64
	// Configurations counts grid evaluations; Simulations counts every
	// simulator run including refinement evaluations.
	Configurations int
	Simulations    int
}

// normalized applies option defaults.
func (o Options) normalized() Options {
	if o.Profiles == nil {
		o.Profiles = DefaultProfiles()
	}
	if o.Grid == nil {
		o.Grid = &Grid{}
	}
	o.Grid.normalize()
	if (o.Base == BaseConfig{}) {
		o.Base = DefaultBase()
	}
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BootstrapReps <= 0 {
		o.BootstrapReps = 200
	}
	if o.Level <= 0 || o.Level >= 1 {
		o.Level = 0.95
	}
	return o
}

// deriveSeed hashes the master seed and a label path into a replicate or
// bootstrap seed. FNV-1a keeps the derivation cheap, stable across
// processes and independent of execution order.
func deriveSeed(master int64, parts ...string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i, v := 0, uint64(master); i < 8; i, v = i+1, v>>8 {
		buf[i] = byte(v)
	}
	h.Write(buf[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return int64(h.Sum64() >> 1) // clear the sign bit
}

// runner carries one sweep's normalized options and counters.
type runner struct {
	opts Options
	sims int
}

// repSeeds returns the cluster and injector seeds of one (profile,
// replicate) pair. They depend only on the profile and replicate — not on
// the grid point — so every configuration sees the same drawn worlds
// (common random numbers), which makes paired comparisons between
// configurations meaningful and keeps optimizer objectives deterministic
// functions of their parameters.
func (r *runner) repSeeds(profile string, rep int) (cluster, inject int64) {
	return deriveSeed(r.opts.Seed, "cluster", profile, strconv.Itoa(rep)),
		deriveSeed(r.opts.Seed, "inject", profile, strconv.Itoa(rep))
}

// buildSpec assembles the RunSpec of one (profile, point, replicate)
// evaluation.
func (r *runner) buildSpec(p SystemProfile, pt Point, rep int) (sim.RunSpec, error) {
	interval, err := strconv.ParseFloat(pt.Interval, 64)
	if err != nil {
		return sim.RunSpec{}, fmt.Errorf("sweep: interval %q: %w", pt.Interval, err)
	}
	bursts, inflate, cascade, err := scenarioSpec(pt.Scenario, p.Nodes, r.opts.Base.HorizonHours)
	if err != nil {
		return sim.RunSpec{}, err
	}
	clusterSeed, injectSeed := r.repSeeds(p.Name, rep)
	return sim.RunSpec{
		TBF: p.TBF, TTR: p.TTR,
		Nodes: p.Nodes,
		Jobs:  r.opts.Base.Jobs, NodesPerJob: r.opts.Base.NodesPerJob,
		WorkHours:          r.opts.Base.WorkHours,
		CheckpointInterval: interval,
		CheckpointCost:     r.opts.Base.CheckpointCost,
		RestartCost:        r.opts.Base.RestartCost,
		Scheduler:          r.opts.Base.Scheduler,
		Seed:               clusterSeed,
		HorizonHours:       r.opts.Base.HorizonHours,
		Retry:              pt.Retry,
		MaxRetries:         r.opts.Base.MaxRetries,
		Fence:              pt.Fence,
		Detect:             pt.Detect,
		Bursts:             bursts,
		Inflate:            inflate,
		Cascade:            cascade,
		InjectSeed:         injectSeed,
	}, nil
}

// evalReplicates runs one configuration at every replicate seed on the
// pool and returns the per-replicate metrics in replicate order.
func (r *runner) evalReplicates(p SystemProfile, pt Point) ([]sim.Metrics, error) {
	n := r.opts.Seeds
	metrics := make([]sim.Metrics, n)
	errs := make([]error, n)
	par.Each(context.Background(), n, r.opts.Workers, func(rep int) {
		spec, err := r.buildSpec(p, pt, rep)
		if err != nil {
			errs[rep] = err
			return
		}
		res, err := sim.RunOne(spec)
		if err != nil {
			errs[rep] = err
			return
		}
		metrics[rep] = res.Metrics
	})
	r.sims += n
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return metrics, nil
}

// aggregate reduces one metric across replicates: mean in replicate
// order plus a percentile-bootstrap CI driven by a seed derived from the
// aggregate's coordinates.
func (r *runner) aggregate(vals []float64, seedParts ...string) Aggregate {
	var m streamstats.Moments
	for _, v := range vals {
		m.Add(v)
	}
	agg := Aggregate{Mean: m.Mean(), Lo: m.Mean(), Hi: m.Mean()}
	if len(vals) < 2 {
		return agg
	}
	src := randx.NewSource(deriveSeed(r.opts.Seed, append([]string{"bootstrap"}, seedParts...)...))
	lo, hi, err := stats.Bootstrap(vals, stats.Mean, r.opts.BootstrapReps, r.opts.Level, src.Intn)
	if err == nil {
		agg.Lo, agg.Hi = lo, hi
	}
	return agg
}

// pointResult aggregates one grid point's replicate metrics.
func (r *runner) pointResult(profile string, pt Point, ms []sim.Metrics) PointResult {
	n := len(ms)
	goodput := make([]float64, n)
	avail := make([]float64, n)
	lost := make([]float64, n)
	var completed, abandoned, injected float64
	for i, m := range ms {
		goodput[i] = m.Goodput
		avail[i] = m.MeanAvailability
		lost[i] = m.TotalLostWorkHours + m.LostToDetectionHours
		completed += float64(m.JobsCompleted)
		abandoned += float64(m.JobsAbandoned)
		injected += float64(m.InjectedFailures)
	}
	idx := strconv.Itoa(pt.Index)
	return PointResult{
		Point:         pt,
		Goodput:       r.aggregate(goodput, profile, idx, "goodput"),
		Availability:  r.aggregate(avail, profile, idx, "avail"),
		LostWorkHours: r.aggregate(lost, profile, idx, "lost"),
		CompletedMean: completed / float64(n),
		AbandonedMean: abandoned / float64(n),
		InjectedMean:  injected / float64(n),
	}
}

// Run executes the sweep: every grid point × profile × replicate on the
// worker pool, aggregation in enumeration order, then optimizer
// refinement around each profile's winner. The result is byte-identical
// at any worker count.
func Run(opts Options) (*Result, error) {
	opts = opts.normalized()
	if err := opts.Grid.Validate(); err != nil {
		return nil, err
	}
	if opts.Base.NodesPerJob <= 0 || opts.Base.Jobs < 0 {
		return nil, fmt.Errorf("sweep: invalid base workload (jobs %d, nodes-per-job %d)",
			opts.Base.Jobs, opts.Base.NodesPerJob)
	}
	for _, p := range opts.Profiles {
		if opts.Base.NodesPerJob > p.Nodes {
			return nil, fmt.Errorf("sweep: profile %s: jobs need %d nodes, cluster has %d",
				p.Name, opts.Base.NodesPerJob, p.Nodes)
		}
	}
	r := &runner{opts: opts}
	points := opts.Grid.Points()
	result := &Result{
		Grid:          opts.Grid,
		Seeds:         opts.Seeds,
		Seed:          opts.Seed,
		BootstrapReps: opts.BootstrapReps,
		Level:         opts.Level,
	}

	for _, profile := range opts.Profiles {
		// Fan every (point, replicate) task of this profile across the
		// pool at once; each task owns result slot point*Seeds+rep.
		nTasks := len(points) * opts.Seeds
		metrics := make([]sim.Metrics, nTasks)
		errs := make([]error, nTasks)
		par.Each(context.Background(), nTasks, opts.Workers, func(task int) {
			pt, rep := points[task/opts.Seeds], task%opts.Seeds
			spec, err := r.buildSpec(profile, pt, rep)
			if err != nil {
				errs[task] = err
				return
			}
			res, err := sim.RunOne(spec)
			if err != nil {
				errs[task] = fmt.Errorf("sweep: %s point %d rep %d: %w", profile.Name, pt.Index, rep, err)
				return
			}
			metrics[task] = res.Metrics
		})
		r.sims += nTasks
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		pr := ProfileResult{Profile: profile, Points: make([]PointResult, len(points))}
		for i, pt := range points {
			pr.Points[i] = r.pointResult(profile.Name, pt, metrics[i*opts.Seeds:(i+1)*opts.Seeds])
		}
		pr.BestIndex = bestPoint(pr.Points)
		result.Configurations += len(points)

		if opts.Refine {
			winner := pr.Points[pr.BestIndex].Point
			ri, err := r.refineInterval(profile, winner)
			if err != nil {
				return nil, err
			}
			pr.RefinedInterval = ri
			rp, err := r.refinePolicy(profile, winner)
			if err != nil {
				return nil, err
			}
			pr.RefinedPolicy = rp
		}
		result.Profiles = append(result.Profiles, pr)
	}
	result.Simulations = r.sims
	return result, nil
}

// bestPoint returns the index of the highest mean goodput, ties broken
// by lowest index.
func bestPoint(points []PointResult) int {
	best := 0
	for i, p := range points {
		if p.Goodput.Mean > points[best].Goodput.Mean {
			best = i
		}
		_ = i
	}
	return best
}
