package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/resilience"
)

// RunSpec is one complete (policy, scenario, seed) simulator configuration
// in the textual spec syntax shared by cmd/simulate's flags and the sweep
// engine's grid axes. Every policy field is a plain string token so a
// configuration can be enumerated, hashed, serialized into reports and fed
// back to the simulator without a parallel set of typed structs.
type RunSpec struct {
	// TBF and TTR are family:params distribution specs in hours, e.g.
	// "weibull:0.7:150" and "lognormal:0:1.2".
	TBF, TTR string
	// Nodes is the cluster size.
	Nodes int
	// Jobs is how many jobs to submit; NodesPerJob the allocation size.
	Jobs, NodesPerJob int
	// WorkHours is the useful work per job.
	WorkHours float64
	// CheckpointInterval is the checkpoint cadence in hours (0 = none);
	// CheckpointCost and RestartCost are the overheads in hours.
	CheckpointInterval, CheckpointCost, RestartCost float64
	// Scheduler is "first-fit" or "reliability-aware".
	Scheduler string
	// Backfill enables EASY-style backfilling behind a blocked queue head.
	Backfill bool
	// Seed drives the cluster's failure/repair streams.
	Seed int64
	// HorizonHours bounds the simulation.
	HorizonHours float64

	// Retry is "none", "immediate", "fixed:<delayH>" or
	// "expo:<baseH>:<maxH>:<jitter>[:<factor>]"; MaxRetries bounds re-runs
	// per job (0 = unlimited).
	Retry      string
	MaxRetries int
	// Fence is "none" or "window:<K>:<windowH>:<probationH>".
	Fence string
	// Detect is "none", "fixed:<hours>" or "uniform:<loH>:<hiH>".
	Detect string

	// Bursts are "atH:firstNode:span:prob:repairH[:spreadH]" injection
	// specs; Inflate is "fromH:untilH:factor"; Cascade is
	// "prob:lagH:repairH". Empty strings inject nothing.
	Bursts  []string
	Inflate string
	Cascade string
	// InjectSeed drives the fault injector's own stream.
	InjectSeed int64
}

// RunResult is the outcome of one simulator configuration.
type RunResult struct {
	Metrics Metrics
	// SchedulerName is the scheduling policy's report label.
	SchedulerName string
	// HasResilience reports whether any retry/fencing/detection policy
	// was active; Injected whether the scenario injected anything.
	HasResilience bool
	Injected      bool
	// SimulatedHours is the simulation clock at collection.
	SimulatedHours float64
}

// compiledRun is a RunSpec with every textual field parsed.
type compiledRun struct {
	tbf, ttr dist.Continuous
	sched    Scheduler
	res      *ResilienceConfig
	scenario resilience.Scenario
}

// Validate parses and checks every field of the spec without running it,
// so a bad configuration fails before the simulation starts, not hours
// into a sweep.
func (s RunSpec) Validate() error {
	_, err := s.compile()
	return err
}

// compile parses the textual fields into simulator types and validates
// the numeric ones.
func (s RunSpec) compile() (*compiledRun, error) {
	var c compiledRun
	var err error
	if c.tbf, err = ParseDistSpec(s.TBF); err != nil {
		return nil, fmt.Errorf("tbf: %w", err)
	}
	if c.ttr, err = ParseDistSpec(s.TTR); err != nil {
		return nil, fmt.Errorf("ttr: %w", err)
	}
	if s.Nodes <= 0 {
		return nil, fmt.Errorf("cluster needs a positive node count, got %d", s.Nodes)
	}
	if s.Jobs < 0 {
		return nil, fmt.Errorf("job count must be non-negative, got %d", s.Jobs)
	}
	if s.NodesPerJob <= 0 {
		return nil, fmt.Errorf("nodes per job must be positive, got %d", s.NodesPerJob)
	}
	if s.NodesPerJob > s.Nodes {
		return nil, fmt.Errorf("jobs need %d nodes, cluster has %d", s.NodesPerJob, s.Nodes)
	}
	if s.HorizonHours <= 0 {
		return nil, fmt.Errorf("horizon must be positive, got %g", s.HorizonHours)
	}
	if c.sched, err = ParseSchedulerSpec(s.Scheduler); err != nil {
		return nil, err
	}
	if c.res, err = ParseResilienceSpec(s.Retry, s.Fence, s.Detect, s.MaxRetries); err != nil {
		return nil, err
	}
	if c.scenario, err = ParseScenarioSpec(s.Bursts, s.Inflate, s.Cascade); err != nil {
		return nil, err
	}
	if !c.scenario.Empty() {
		if err := c.scenario.Validate(s.Nodes); err != nil {
			return nil, err
		}
	}
	// Job parameters are validated by JobConfig.Validate; run it on the
	// prototype job so errors surface here.
	job := JobConfig{
		WorkHours:           s.WorkHours,
		CheckpointInterval:  s.CheckpointInterval,
		CheckpointCostHours: s.CheckpointCost,
		RestartCostHours:    s.RestartCost,
	}
	if s.Jobs > 0 {
		if err := job.Validate(); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

// RunOne executes one configuration end to end: build the cluster, arm
// the injection scenario, submit the job stream, run to the horizon and
// collect metrics. It is the single code path behind cmd/simulate's model
// mode and every point a sweep evaluates. The result is a deterministic
// function of the spec: same spec, same metrics, bit for bit.
func RunOne(s RunSpec) (RunResult, error) {
	c, err := s.compile()
	if err != nil {
		return RunResult{}, err
	}
	specs := make([]NodeSpec, s.Nodes)
	for i := range specs {
		specs[i] = NodeSpec{TBF: c.tbf, TTR: c.ttr}
	}
	cluster, err := NewCluster(ClusterConfig{
		Nodes:      specs,
		Scheduler:  c.sched,
		Seed:       s.Seed,
		Backfill:   s.Backfill,
		Resilience: c.res,
	})
	if err != nil {
		return RunResult{}, err
	}
	if !c.scenario.Empty() {
		if _, err := cluster.Inject(c.scenario, s.InjectSeed); err != nil {
			return RunResult{}, err
		}
	}
	for i := 0; i < s.Jobs; i++ {
		if err := cluster.Submit(JobConfig{
			ID:                  i,
			WorkHours:           s.WorkHours,
			CheckpointInterval:  s.CheckpointInterval,
			CheckpointCostHours: s.CheckpointCost,
			RestartCostHours:    s.RestartCost,
		}, s.NodesPerJob); err != nil {
			return RunResult{}, err
		}
	}
	if err := cluster.Run(time.Duration(s.HorizonHours * float64(time.Hour))); err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Metrics:        cluster.Collect(),
		SchedulerName:  c.sched.Name(),
		HasResilience:  c.res != nil,
		Injected:       !c.scenario.Empty(),
		SimulatedHours: cluster.Engine().Now().Hours(),
	}, nil
}

// hoursOf converts the hour values of one spec token to durations. It
// rejects NaN, ±Inf and any value outside time.Duration's int64
// nanosecond range, naming the token.
func hoursOf(spec string, hs ...float64) ([]time.Duration, error) {
	ds := make([]time.Duration, len(hs))
	for i, h := range hs {
		ns := h * float64(time.Hour)
		// As a float64, math.MaxInt64 rounds up to 2^63, the first value
		// that overflows.
		if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
			return nil, fmt.Errorf("%q: %g hours is outside the range of a duration", spec, h)
		}
		ds[i] = time.Duration(ns)
	}
	return ds, nil
}

// splitParams parses the numeric parameters of a name:p1:p2 spec and
// checks their count against the allowed arities.
func splitParams(spec string, want ...int) ([]float64, error) {
	parts := strings.Split(spec, ":")
	ok := false
	for _, w := range want {
		if len(parts)-1 == w {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("%q needs %v parameters, got %d", parts[0], want, len(parts)-1)
	}
	params := make([]float64, 0, len(parts)-1)
	for _, p := range parts[1:] {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", spec, err)
		}
		params = append(params, v)
	}
	return params, nil
}

// ParseSchedulerSpec resolves a scheduler name.
func ParseSchedulerSpec(spec string) (Scheduler, error) {
	switch spec {
	case "", "first-fit":
		return FirstFitScheduler{}, nil
	case "reliability-aware":
		return ReliabilityScheduler{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", spec)
	}
}

// ParseDistSpec parses family:param[:param] specs, e.g. weibull:0.7:150,
// exponential:0.01, lognormal:0:1.2, gamma:2:50.
func ParseDistSpec(spec string) (dist.Continuous, error) {
	family := strings.SplitN(spec, ":", 2)[0]
	switch family {
	case "exponential":
		p, err := splitParams(spec, 1)
		if err != nil {
			return nil, err
		}
		return dist.NewExponential(p[0])
	case "weibull":
		p, err := splitParams(spec, 2)
		if err != nil {
			return nil, err
		}
		return dist.NewWeibull(p[0], p[1])
	case "gamma":
		p, err := splitParams(spec, 2)
		if err != nil {
			return nil, err
		}
		return dist.NewGamma(p[0], p[1])
	case "lognormal":
		p, err := splitParams(spec, 2)
		if err != nil {
			return nil, err
		}
		return dist.NewLogNormal(p[0], p[1])
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

// ParseRetrySpec parses a retry-policy token: "none", "immediate",
// "fixed:<delayH>" or "expo:<baseH>:<maxH>:<jitter>[:<factor>]". A nil
// policy (with nil error) means "none".
func ParseRetrySpec(spec string, maxRetries int) (resilience.RetryPolicy, error) {
	switch kind := strings.SplitN(spec, ":", 2)[0]; kind {
	case "none":
		if spec != "none" {
			return nil, fmt.Errorf("%q takes no parameters", spec)
		}
		return nil, nil
	case "immediate":
		if spec != "immediate" {
			return nil, fmt.Errorf("%q takes no parameters", spec)
		}
		return resilience.ImmediateRetry{MaxRetries: maxRetries}, nil
	case "fixed":
		p, err := splitParams(spec, 1)
		if err != nil {
			return nil, err
		}
		if p[0] < 0 {
			return nil, fmt.Errorf("negative delay %g", p[0])
		}
		d, err := hoursOf(spec, p[0])
		if err != nil {
			return nil, err
		}
		return resilience.FixedBackoff{Delay: d[0], MaxRetries: maxRetries}, nil
	case "expo":
		p, err := splitParams(spec, 3, 4)
		if err != nil {
			return nil, err
		}
		d, err := hoursOf(spec, p[0], p[1])
		if err != nil {
			return nil, err
		}
		eb := resilience.ExponentialBackoff{
			Base: d[0], Max: d[1], Jitter: p[2], MaxRetries: maxRetries,
		}
		if len(p) == 4 {
			if p[3] <= 1 {
				return nil, fmt.Errorf("backoff factor %g must exceed 1", p[3])
			}
			eb.Factor = p[3]
		}
		if err := eb.Validate(); err != nil {
			return nil, err
		}
		return eb, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", kind)
	}
}

// ParseFenceSpec parses a fencing token: "none" or
// "window:<K>:<windowH>:<probationH>". A nil policy means "none".
func ParseFenceSpec(spec string) (resilience.FencingPolicy, error) {
	switch kind := strings.SplitN(spec, ":", 2)[0]; kind {
	case "none":
		if spec != "none" {
			return nil, fmt.Errorf("%q takes no parameters", spec)
		}
		return nil, nil
	case "window":
		p, err := splitParams(spec, 3)
		if err != nil {
			return nil, err
		}
		d, err := hoursOf(spec, p[1], p[2])
		if err != nil {
			return nil, err
		}
		return resilience.NewWindowFencing(int(p[0]), d[0], d[1])
	default:
		return nil, fmt.Errorf("unknown policy %q", kind)
	}
}

// ParseDetectSpec parses a detection token: "none", "fixed:<hours>" or
// "uniform:<loH>:<hiH>". A nil model means "none" (instant observation).
func ParseDetectSpec(spec string) (resilience.DetectionModel, error) {
	switch kind := strings.SplitN(spec, ":", 2)[0]; kind {
	case "none":
		if spec != "none" {
			return nil, fmt.Errorf("%q takes no parameters", spec)
		}
		return nil, nil
	case "fixed":
		p, err := splitParams(spec, 1)
		if err != nil {
			return nil, err
		}
		if p[0] < 0 {
			return nil, fmt.Errorf("negative lag %g", p[0])
		}
		d, err := hoursOf(spec, p[0])
		if err != nil {
			return nil, err
		}
		return resilience.FixedDetection{Delay: d[0]}, nil
	case "uniform":
		p, err := splitParams(spec, 2)
		if err != nil {
			return nil, err
		}
		d, err := hoursOf(spec, p[0], p[1])
		if err != nil {
			return nil, err
		}
		ud := resilience.UniformDetection{Min: d[0], Max: d[1]}
		if err := ud.Validate(); err != nil {
			return nil, err
		}
		return ud, nil
	default:
		return nil, fmt.Errorf("unknown model %q", kind)
	}
}

// ParseResilienceSpec combines the three policy tokens into a cluster
// resilience configuration; it returns nil when all three are "none".
// Empty tokens default to "none".
func ParseResilienceSpec(retry, fence, detect string, maxRetries int) (*ResilienceConfig, error) {
	if retry == "" {
		retry = "none"
	}
	if fence == "" {
		fence = "none"
	}
	if detect == "" {
		detect = "none"
	}
	var res ResilienceConfig
	var err error
	if res.Retry, err = ParseRetrySpec(retry, maxRetries); err != nil {
		return nil, fmt.Errorf("retry: %w", err)
	}
	if res.Fencing, err = ParseFenceSpec(fence); err != nil {
		return nil, fmt.Errorf("fence: %w", err)
	}
	if res.Detection, err = ParseDetectSpec(detect); err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	if res.Retry == nil && res.Fencing == nil && res.Detection == nil {
		return nil, nil
	}
	return &res, nil
}

// ParseBurstSpec parses one "atH:firstNode:span:prob:repairH[:spreadH]"
// burst spec. Structural validation (node ranges, probabilities) happens
// in Scenario.Validate, which knows the cluster size.
func ParseBurstSpec(spec string) (resilience.Burst, error) {
	fields := strings.Split(spec, ":")
	if len(fields) != 5 && len(fields) != 6 {
		return resilience.Burst{}, fmt.Errorf("%q needs atH:firstNode:span:prob:repairH[:spreadH]", spec)
	}
	p := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return resilience.Burst{}, fmt.Errorf("parse %q: %w", spec, err)
		}
		p[i] = v
	}
	spread := 0.0
	if len(p) == 6 {
		spread = p[5]
	}
	d, err := hoursOf(spec, p[0], spread)
	if err != nil {
		return resilience.Burst{}, err
	}
	return resilience.Burst{
		At: d[0], FirstNode: int(p[1]), Span: int(p[2]),
		FailProb: p[3], RepairHours: p[4], Spread: d[1],
	}, nil
}

// ParseScenarioSpec builds an injection scenario from burst, inflation
// and cascade tokens; empty strings contribute nothing.
func ParseScenarioSpec(bursts []string, inflate, cascade string) (resilience.Scenario, error) {
	var sc resilience.Scenario
	for _, spec := range bursts {
		b, err := ParseBurstSpec(spec)
		if err != nil {
			return sc, fmt.Errorf("burst: %w", err)
		}
		sc.Bursts = append(sc.Bursts, b)
	}
	if inflate != "" {
		p, err := splitParams("inflate:"+inflate, 3)
		if err != nil {
			return sc, fmt.Errorf("repair-inflate: %w", err)
		}
		d, err := hoursOf(inflate, p[0], p[1])
		if err != nil {
			return sc, fmt.Errorf("repair-inflate: %w", err)
		}
		sc.Inflations = append(sc.Inflations, resilience.RepairInflation{
			From: d[0], Until: d[1], Factor: p[2],
		})
	}
	if cascade != "" {
		p, err := splitParams("cascade:"+cascade, 3)
		if err != nil {
			return sc, fmt.Errorf("cascade: %w", err)
		}
		d, err := hoursOf(cascade, p[1])
		if err != nil {
			return sc, fmt.Errorf("cascade: %w", err)
		}
		sc.Cascade = &resilience.Cascade{Prob: p[0], Lag: d[0], RepairHours: p[2]}
	}
	return sc, nil
}
