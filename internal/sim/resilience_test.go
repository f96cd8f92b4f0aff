package sim

import (
	"math"
	"testing"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/randx"
	"hpcfail/internal/resilience"
)

// seqSampler replays a fixed sequence of values (hours), repeating the
// last one forever — full control over failure/repair timing through
// the public cluster API.
type seqSampler struct {
	vals []float64
	i    int
}

func (s *seqSampler) Rand(_ *randx.Source) float64 {
	v := s.vals[s.i]
	if s.i < len(s.vals)-1 {
		s.i++
	}
	return v
}

func seq(vals ...float64) *seqSampler { return &seqSampler{vals: vals} }

const never = 1e9 // hours; capped far beyond any test horizon

func h(x float64) time.Duration { return time.Duration(x * float64(time.Hour)) }

func TestRetryRequeuesOntoHealthyNodes(t *testing.T) {
	// Node 0 fails at 12h (repair 100h); node 1 never fails. First-fit
	// places the job on node 0; the retry policy must move it to node 1
	// instead of camping on node 0 for 100 hours.
	cfg := ClusterConfig{
		Nodes: []NodeSpec{
			{TBF: seq(12, never), TTR: seq(100)},
			{TBF: seq(never), TTR: seq(1)},
		},
		Scheduler:  FirstFitScheduler{},
		Seed:       1,
		Resilience: &ResilienceConfig{Retry: resilience.ImmediateRetry{}},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 50, CheckpointInterval: 5}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(200)); err != nil {
		t.Fatal(err)
	}
	m := c.Collect()
	if m.JobsCompleted != 1 {
		t.Fatalf("completed = %d, want 1 (unfinished %d)", m.JobsCompleted, m.JobsUnfinished)
	}
	if m.TotalRetries != 1 {
		t.Fatalf("retries = %d, want 1", m.TotalRetries)
	}
	job := c.Jobs()[0]
	// Checkpoints at 5 and 10h saved 10h of work; the failure at 12h
	// loses 2h; the retry restarts on node 1 at 12h with 40h remaining.
	if math.Abs(job.LostWorkHours()-2) > 1e-9 {
		t.Fatalf("lost work = %g, want 2", job.LostWorkHours())
	}
	if math.Abs(job.WallHours()-52) > 1e-9 {
		t.Fatalf("wall = %g, want 52 (12h on node 0 + 40h on node 1)", job.WallHours())
	}
	if m.GoodputHours != 50 {
		t.Fatalf("goodput hours = %g, want 50", m.GoodputHours)
	}
}

func TestRetryBudgetExhaustionAbandonsJob(t *testing.T) {
	// A single node failing every 5h can never finish 100h of
	// uncheckpointed work; with one retry allowed the job must be
	// abandoned after its second interruption.
	cfg := ClusterConfig{
		Nodes:      []NodeSpec{{TBF: seq(5), TTR: seq(1)}},
		Scheduler:  FirstFitScheduler{},
		Seed:       1,
		Resilience: &ResilienceConfig{Retry: resilience.ImmediateRetry{MaxRetries: 1}},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 100}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(500)); err != nil {
		t.Fatal(err)
	}
	m := c.Collect()
	if m.JobsAbandoned != 1 || m.JobsCompleted != 0 {
		t.Fatalf("abandoned = %d completed = %d, want 1, 0", m.JobsAbandoned, m.JobsCompleted)
	}
	if !c.Jobs()[0].Abandoned() {
		t.Fatal("job must report Abandoned")
	}
	if m.TotalRetries != 1 {
		t.Fatalf("retries = %d, want exactly the budget", m.TotalRetries)
	}
}

func TestFencingRoutesAroundFlakyNode(t *testing.T) {
	// Node 0 fails twice early (at 1h and 3h, 0.5h repairs), tripping a
	// 2-strike fence with a long probation. A job submitted afterwards
	// must run on node 1 even though first-fit prefers node 0.
	fence, err := resilience.NewWindowFencing(2, 24*time.Hour, 200*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Nodes: []NodeSpec{
			{TBF: seq(1, 1.5, never), TTR: seq(0.5, 0.5)},
			{TBF: seq(never), TTR: seq(1)},
		},
		Scheduler:  FirstFitScheduler{},
		Seed:       1,
		Resilience: &ResilienceConfig{Retry: resilience.ImmediateRetry{}, Fencing: fence},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(10)); err != nil { // let node 0 fail twice
		t.Fatal(err)
	}
	if fence.Admit(0, h(10)) {
		t.Fatal("node 0 must be fenced after two strikes")
	}
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 20}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(50)); err != nil {
		t.Fatal(err)
	}
	m := c.Collect()
	if m.JobsCompleted != 1 {
		t.Fatalf("completed = %d, want 1", m.JobsCompleted)
	}
	if got := c.Jobs()[0].Interruptions(); got != 0 {
		t.Fatalf("interruptions = %d: job must have avoided the flaky node", got)
	}
	if m.FencedNodeHours <= 0 {
		t.Fatalf("fenced node hours = %g, want > 0", m.FencedNodeHours)
	}
}

func TestDetectionLatencyLosesExtraWork(t *testing.T) {
	// Node fails at 10h but the failure is observed only at 11.5h; the
	// 1.5h of phantom progress past the 8h checkpoint is charged to
	// detection latency.
	cfg := ClusterConfig{
		Nodes:     []NodeSpec{{TBF: seq(10, never), TTR: seq(2)}},
		Scheduler: FirstFitScheduler{},
		Seed:      1,
		Resilience: &ResilienceConfig{
			Detection: resilience.FixedDetection{Delay: 90 * time.Minute},
		},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 20, CheckpointInterval: 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(100)); err != nil {
		t.Fatal(err)
	}
	m := c.Collect()
	if m.JobsCompleted != 1 {
		t.Fatalf("completed = %d, want 1", m.JobsCompleted)
	}
	// Rollback loses 11.5h - 8h = 3.5h, of which 1.5h is the lag.
	if math.Abs(m.TotalLostWorkHours-3.5) > 1e-9 {
		t.Fatalf("lost work = %g, want 3.5", m.TotalLostWorkHours)
	}
	if math.Abs(m.LostToDetectionHours-1.5) > 1e-9 {
		t.Fatalf("lost to detection = %g, want 1.5", m.LostToDetectionHours)
	}
	// Repair starts at observation, not at the true failure: down from
	// 10h to 13.5h, resume with 12h remaining -> done at 25.5h.
	job := c.Jobs()[0]
	if math.Abs(job.WallHours()-25.5) > 1e-9 {
		t.Fatalf("wall = %g, want 25.5", job.WallHours())
	}
}

func TestCheckpointDoesNotSucceedOnDeadNode(t *testing.T) {
	// Failure at 7.5h, observed at 9h. The 8h checkpoint falls inside
	// the undetected-dead window and must not capture progress.
	cfg := ClusterConfig{
		Nodes:     []NodeSpec{{TBF: seq(7.5, never), TTR: seq(1)}},
		Scheduler: FirstFitScheduler{},
		Seed:      1,
		Resilience: &ResilienceConfig{
			Detection: resilience.FixedDetection{Delay: 90 * time.Minute},
		},
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 20, CheckpointInterval: 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(100)); err != nil {
		t.Fatal(err)
	}
	// Only the 4h checkpoint may count before the rollback: the loss is
	// 9h - 4h = 5h, not 9h - 8h = 1h.
	if got := c.Collect().TotalLostWorkHours; math.Abs(got-5) > 1e-9 {
		t.Fatalf("lost work = %g, want 5 (phantom checkpoint must fail)", got)
	}
}

func TestInjectorBurstStrikesNodeRange(t *testing.T) {
	specs := make([]NodeSpec, 8)
	for i := range specs {
		specs[i] = NodeSpec{TBF: seq(never), TTR: seq(1)}
	}
	c, err := NewCluster(ClusterConfig{Nodes: specs, Scheduler: FirstFitScheduler{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := resilience.Scenario{Bursts: []resilience.Burst{
		{At: h(10), FirstNode: 0, Span: 4, FailProb: 1, RepairHours: 5},
	}}
	if _, err := c.Inject(sc, 99); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(30)); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		want := 0
		if i < 4 {
			want = 1
		}
		if n.Failures() != want {
			t.Fatalf("node %d failures = %d, want %d", i, n.Failures(), want)
		}
	}
	m := c.Collect()
	if m.InjectedFailures != 4 {
		t.Fatalf("injected = %d, want 4", m.InjectedFailures)
	}
	if m.CascadeFailures != 0 {
		t.Fatalf("cascades = %d, want 0", m.CascadeFailures)
	}
	if _, err := c.Inject(sc, 1); err == nil {
		t.Fatal("second injector must be rejected")
	}
}

func TestInjectorCascadeHitsCoScheduledNodes(t *testing.T) {
	specs := make([]NodeSpec, 4)
	for i := range specs {
		specs[i] = NodeSpec{TBF: seq(never), TTR: seq(1)}
	}
	c, err := NewCluster(ClusterConfig{Nodes: specs, Scheduler: FirstFitScheduler{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One 2-node job on nodes 0 and 1; nodes 2 and 3 stay idle.
	if err := c.Submit(JobConfig{ID: 1, WorkHours: 100, CheckpointInterval: 5}, 2); err != nil {
		t.Fatal(err)
	}
	sc := resilience.Scenario{
		Bursts:  []resilience.Burst{{At: h(10), FirstNode: 0, Span: 1, FailProb: 1, RepairHours: 2}},
		Cascade: &resilience.Cascade{Prob: 1, Lag: time.Minute, RepairHours: 2},
	}
	if _, err := c.Inject(sc, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(h(200)); err != nil {
		t.Fatal(err)
	}
	m := c.Collect()
	if m.CascadeFailures != 1 {
		t.Fatalf("cascades = %d, want 1 (co-scheduled peer only)", m.CascadeFailures)
	}
	if m.InjectedFailures != 2 {
		t.Fatalf("injected = %d, want 2", m.InjectedFailures)
	}
	if c.Nodes()[2].Failures() != 0 || c.Nodes()[3].Failures() != 0 {
		t.Fatal("cascade must not reach idle nodes")
	}
}

func TestInjectorRepairInflation(t *testing.T) {
	run := func(factor float64) float64 {
		c, err := NewCluster(ClusterConfig{
			Nodes:     []NodeSpec{{TBF: seq(10), TTR: seq(1)}},
			Scheduler: FirstFitScheduler{},
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if factor > 1 {
			sc := resilience.Scenario{Inflations: []resilience.RepairInflation{
				{From: 0, Until: h(1000), Factor: factor},
			}}
			if _, err := c.Inject(sc, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(h(1000)); err != nil {
			t.Fatal(err)
		}
		return c.Nodes()[0].Availability()
	}
	base := run(1)
	inflated := run(5)
	// TBF 10h TTR 1h -> ~10/11; with 5h repairs -> ~10/15.
	if math.Abs(base-10.0/11) > 0.01 {
		t.Fatalf("base availability = %g, want ~0.909", base)
	}
	if math.Abs(inflated-10.0/15) > 0.01 {
		t.Fatalf("inflated availability = %g, want ~0.667", inflated)
	}
}

// burstScenarioMetrics runs the full resilience stack — backoff retry
// with jitter, window fencing, uniform detection, bursts, cascade and
// repair inflation — and returns the collected metrics.
func burstScenarioMetrics(t *testing.T, seed int64) Metrics {
	t.Helper()
	wb, err := dist.NewWeibull(0.7, 200)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := dist.NewLogNormal(0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]NodeSpec, 16)
	for i := range specs {
		specs[i] = NodeSpec{TBF: wb, TTR: ln}
	}
	fence, err := resilience.NewWindowFencing(2, 48*time.Hour, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{
		Nodes:     specs,
		Scheduler: FirstFitScheduler{},
		Seed:      seed,
		Backfill:  true,
		Resilience: &ResilienceConfig{
			Retry: resilience.ExponentialBackoff{
				Base: 30 * time.Minute, Max: 8 * time.Hour, Jitter: 0.5, MaxRetries: 20,
			},
			Fencing:   fence,
			Detection: resilience.UniformDetection{Min: time.Minute, Max: time.Hour},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := resilience.Scenario{
		Bursts: []resilience.Burst{
			{At: h(100), FirstNode: 0, Span: 8, FailProb: 0.9, RepairHours: 12, Spread: h(2)},
			{At: h(150), FirstNode: 4, Span: 8, FailProb: 0.8, RepairHours: 8, Spread: h(1)},
		},
		Inflations: []resilience.RepairInflation{{From: h(100), Until: h(200), Factor: 3}},
		Cascade:    &resilience.Cascade{Prob: 0.4, Lag: 5 * time.Minute, RepairHours: 4},
	}
	if _, err := c.Inject(sc, 424242); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := c.Submit(JobConfig{
			ID: i, WorkHours: 150, CheckpointInterval: 8,
			CheckpointCostHours: 0.1, RestartCostHours: 0.25,
		}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(h(4000)); err != nil {
		t.Fatal(err)
	}
	return c.Collect()
}

// TestDeterminismUnderInjection guards the engine's (at, seq) event
// ordering: the same seeded scenario must reproduce byte-identical
// metrics across runs, even with the full policy and injection stack
// active.
func TestDeterminismUnderInjection(t *testing.T) {
	a := burstScenarioMetrics(t, 11)
	b := burstScenarioMetrics(t, 11)
	if a != b {
		t.Fatalf("same seed diverged:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
	if a.InjectedFailures == 0 {
		t.Fatal("scenario injected nothing; the determinism check is vacuous")
	}
	if a.TotalRetries == 0 {
		t.Fatal("no retries happened; the determinism check is vacuous")
	}
	other := burstScenarioMetrics(t, 12)
	if a == other {
		t.Fatal("different seeds produced identical metrics; suspicious")
	}
}
