package sim

import (
	"fmt"
	"sort"
	"time"

	"hpcfail/internal/randx"
	"hpcfail/internal/resilience"
)

// Scheduler chooses nodes for a job. Implementations see every node that is
// currently up and idle and must return exactly `need` of them (or nil if
// the job cannot be placed yet).
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick selects need nodes from the idle, up candidates.
	Pick(candidates []*Node, need int) []*Node
}

// FirstFitScheduler picks the lowest-numbered idle nodes — the baseline
// reliability-oblivious policy.
type FirstFitScheduler struct{}

var _ Scheduler = FirstFitScheduler{}

// Name implements Scheduler.
func (FirstFitScheduler) Name() string { return "first-fit" }

// Pick implements Scheduler.
func (FirstFitScheduler) Pick(candidates []*Node, need int) []*Node {
	if len(candidates) < need {
		return nil
	}
	picked := make([]*Node, need)
	copy(picked, candidates[:need])
	return picked
}

// ReliabilityScheduler picks the nodes with the highest observed mean time
// between failures — the failure-aware allocation the paper's Section 5.1
// suggests ("assigning critical jobs ... to more reliable nodes").
type ReliabilityScheduler struct{}

var _ Scheduler = ReliabilityScheduler{}

// Name implements Scheduler.
func (ReliabilityScheduler) Name() string { return "reliability-aware" }

// Pick implements Scheduler.
func (ReliabilityScheduler) Pick(candidates []*Node, need int) []*Node {
	if len(candidates) < need {
		return nil
	}
	sorted := make([]*Node, len(candidates))
	copy(sorted, candidates)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].MTBFHours() > sorted[j].MTBFHours()
	})
	return sorted[:need]
}

// ScoredScheduler picks nodes by an externally supplied reliability score
// (higher is better) — for example failure counts from years of collected
// failure records, the data product the paper's Section 5.1 proposes to
// exploit. Nodes without a score rank lowest.
type ScoredScheduler struct {
	// PolicyName labels the policy in reports; defaults to "scored".
	PolicyName string
	// Score maps node ID to reliability score; higher is preferred.
	Score map[int]float64
}

var _ Scheduler = ScoredScheduler{}

// Name implements Scheduler.
func (s ScoredScheduler) Name() string {
	if s.PolicyName != "" {
		return s.PolicyName
	}
	return "scored"
}

// Pick implements Scheduler.
func (s ScoredScheduler) Pick(candidates []*Node, need int) []*Node {
	if len(candidates) < need {
		return nil
	}
	sorted := make([]*Node, len(candidates))
	copy(sorted, candidates)
	sort.SliceStable(sorted, func(i, j int) bool {
		return s.Score[sorted[i].ID] > s.Score[sorted[j].ID]
	})
	return sorted[:need]
}

// NodeSpec describes one node to build in a cluster.
type NodeSpec struct {
	// TBF and TTR are the failure and repair samplers in hours; any
	// dist.Continuous works.
	TBF, TTR Sampler
}

// ResilienceConfig selects the cluster's failure-response policies.
// Every field is optional; a nil field keeps the corresponding naive
// behavior (camp on the failed node, admit every node, observe failures
// instantly).
type ResilienceConfig struct {
	// Retry re-queues interrupted jobs onto fresh nodes instead of
	// making them wait for the failed node's repair.
	Retry resilience.RetryPolicy
	// Fencing withholds flaky nodes from the scheduler.
	Fencing resilience.FencingPolicy
	// Detection delays failure observation, so jobs burn wall-clock
	// time on dead nodes before reacting.
	Detection resilience.DetectionModel
}

// ClusterConfig describes a simulated cluster.
type ClusterConfig struct {
	Nodes     []NodeSpec
	Scheduler Scheduler
	Seed      int64
	// Backfill allows jobs behind a blocked queue head to start when
	// enough idle nodes exist for them (EASY-style backfilling without
	// reservations). Without it the queue is strictly FIFO.
	Backfill bool
	// Resilience, when non-nil, enables failure-response policies.
	Resilience *ResilienceConfig
}

// queued is one queue entry: a fresh submission (job == nil) or a retry
// of an interrupted job, eligible to start once notBefore has passed.
type queued struct {
	cfg       JobConfig
	need      int
	job       *Job
	notBefore time.Duration
}

// Cluster owns a set of nodes and runs a FIFO queue of jobs over them.
type Cluster struct {
	engine    *Engine
	nodes     []*Node
	scheduler Scheduler
	backfill  bool
	res       *ResilienceConfig
	src       *randx.Source // retry jitter; nil without resilience

	busy     map[int]bool
	queue    []queued
	started  []*Job
	jobNodes map[*Job][]*Node
	coSched  map[int][]*Node // node ID -> the node set of its running job
	injector *Injector
	polling  bool
}

// monitor adapts the cluster to FailureListener for policy bookkeeping
// without exposing listener methods on Cluster itself.
type monitor struct{ c *Cluster }

// NodeFailed implements FailureListener.
func (m monitor) NodeFailed(n *Node, at time.Duration) {
	if f := m.c.fencing(); f != nil {
		f.RecordFailure(n.ID, at)
	}
}

// NodeRepaired implements FailureListener.
func (m monitor) NodeRepaired(n *Node, at time.Duration) {
	if f := m.c.fencing(); f != nil {
		f.RecordRepair(n.ID, at)
	}
	// A repaired node may unblock waiting (possibly retried) jobs.
	m.c.dispatch()
}

func (c *Cluster) fencing() resilience.FencingPolicy {
	if c.res == nil {
		return nil
	}
	return c.res.Fencing
}

// NewCluster builds a cluster and starts its nodes' failure processes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("sim: cluster needs nodes")
	}
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: cluster needs a scheduler")
	}
	engine := &Engine{}
	src := randx.NewSource(cfg.Seed)
	c := &Cluster{
		engine:    engine,
		scheduler: cfg.Scheduler,
		backfill:  cfg.Backfill,
		res:       cfg.Resilience,
		busy:      make(map[int]bool),
		jobNodes:  make(map[*Job][]*Node),
		coSched:   make(map[int][]*Node),
	}
	for i, spec := range cfg.Nodes {
		if spec.TBF == nil || spec.TTR == nil {
			return nil, fmt.Errorf("sim: node %d: missing distribution", i)
		}
		n, err := NewNode(i, engine, spec.TBF, spec.TTR, src.Split())
		if err != nil {
			return nil, err
		}
		if c.res != nil {
			if c.res.Detection != nil {
				if err := n.SetDetection(c.res.Detection); err != nil {
					return nil, err
				}
			}
			// Subscribe before any job so policies see each event first.
			n.Subscribe(monitor{c})
		}
		if err := n.Start(); err != nil {
			return nil, fmt.Errorf("sim: start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	// The parent source survives for retry jitter; it is only drawn
	// from after every node stream has been split off, so node streams
	// match the resilience-free configuration.
	c.src = src
	return c, nil
}

// Engine exposes the cluster's simulation clock.
func (c *Cluster) Engine() *Engine { return c.engine }

// Nodes returns the cluster's nodes.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Submit queues a job; NodesNeeded is inferred as 1 when zero.
func (c *Cluster) Submit(cfg JobConfig, nodesNeeded int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if nodesNeeded <= 0 {
		nodesNeeded = 1
	}
	if nodesNeeded > len(c.nodes) {
		return fmt.Errorf("sim: job %d needs %d nodes, cluster has %d",
			cfg.ID, nodesNeeded, len(c.nodes))
	}
	c.queue = append(c.queue, queued{cfg: cfg, need: nodesNeeded})
	return nil
}

// dispatch tries to start queued jobs on idle, up, admissible nodes. By
// default the queue is strictly FIFO (a blocked head — including a
// retry still serving its backoff — blocks everything, as in
// space-shared HPC scheduling); with Backfill enabled, jobs behind a
// blocked head may start when they fit.
func (c *Cluster) dispatch() {
	now := c.engine.Now()
	fencing := c.fencing()
	for i := 0; i < len(c.queue); {
		q := c.queue[i]
		if q.notBefore > now {
			if !c.backfill {
				return
			}
			i++ // backoff not served yet: try the next queued job
			continue
		}
		var idle []*Node
		for _, n := range c.nodes {
			if c.busy[n.ID] || n.State() != StateUp {
				continue
			}
			if fencing != nil && !fencing.Admit(n.ID, now) {
				continue
			}
			idle = append(idle, n)
		}
		picked := c.scheduler.Pick(idle, q.need)
		if picked == nil {
			if !c.backfill {
				return
			}
			i++ // head blocked: try the next queued job
			continue
		}
		c.startQueued(i, picked)
		// Restart the scan: indices shifted and idle capacity changed.
		i = 0
	}
}

// startQueued removes queue entry i and starts (or resumes) it on the
// picked nodes.
func (c *Cluster) startQueued(i int, picked []*Node) {
	q := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	for _, n := range picked {
		c.busy[n.ID] = true
		c.coSched[n.ID] = picked
	}
	if q.job != nil {
		c.jobNodes[q.job] = picked
		if err := q.job.resume(picked); err != nil {
			panic(fmt.Sprintf("sim: resume job %d: %v", q.cfg.ID, err))
		}
		return
	}
	var onAbort func(*Job)
	if c.res != nil && c.res.Retry != nil {
		onAbort = c.handleAbort
	}
	job, err := startJob(c.engine, q.cfg, picked, c.handleDone, onAbort)
	if err != nil {
		panic(fmt.Sprintf("sim: dispatch job %d: %v", q.cfg.ID, err))
	}
	c.jobNodes[job] = picked
	c.started = append(c.started, job)
}

// release frees the nodes held by j.
func (c *Cluster) release(j *Job) {
	for _, n := range c.jobNodes[j] {
		delete(c.busy, n.ID)
		delete(c.coSched, n.ID)
	}
	delete(c.jobNodes, j)
}

// handleDone releases a completed job's nodes and tries to place the
// next job.
func (c *Cluster) handleDone(j *Job) {
	c.release(j)
	c.dispatch()
}

// handleAbort re-queues an interrupted job under the retry policy, or
// abandons it when the budget is exhausted.
func (c *Cluster) handleAbort(j *Job) {
	need := len(c.jobNodes[j])
	c.release(j)
	delay, ok := c.res.Retry.NextDelay(j.retries+1, c.src)
	if !ok {
		j.abandon()
		c.dispatch()
		return
	}
	c.queue = append(c.queue, queued{
		cfg:       j.cfg,
		need:      need,
		job:       j,
		notBefore: c.engine.Now() + delay,
	})
	if delay > 0 {
		// Wake the dispatcher when the backoff has been served.
		if err := c.engine.Schedule(delay, c.dispatch); err != nil {
			panic(fmt.Sprintf("sim: schedule retry: %v", err))
		}
	}
	c.dispatch()
	c.ensurePoll()
}

// ensurePoll keeps a 1h-cadence dispatch poller alive while jobs wait:
// it catches the cases no event announces, such as a fenced node's
// probation expiring.
func (c *Cluster) ensurePoll() {
	if c.polling || len(c.queue) == 0 {
		return
	}
	c.polling = true
	if err := c.engine.Schedule(time.Hour, c.poll); err != nil {
		panic(fmt.Sprintf("sim: schedule poll: %v", err))
	}
}

func (c *Cluster) poll() {
	c.polling = false
	c.dispatch()
	c.ensurePoll()
}

// Run dispatches queued jobs and processes events until the horizon.
func (c *Cluster) Run(horizon time.Duration) error {
	c.dispatch()
	// Re-attempt dispatch whenever a node is repaired: a waiting queue head
	// may now fit. A small poller keeps the implementation simple and the
	// cadence (1h) is far below node MTBF.
	c.ensurePoll()
	return c.engine.Run(horizon)
}

// Jobs returns all started jobs.
func (c *Cluster) Jobs() []*Job {
	out := make([]*Job, len(c.started))
	copy(out, c.started)
	return out
}

// QueueLength returns the number of jobs still waiting for nodes.
func (c *Cluster) QueueLength() int { return len(c.queue) }

// Metrics summarizes a finished simulation.
type Metrics struct {
	JobsCompleted  int
	JobsUnfinished int
	// JobsAbandoned counts jobs whose retry budget ran out (a subset of
	// JobsUnfinished).
	JobsAbandoned int
	// MeanEfficiency averages useful-work fraction over completed jobs.
	MeanEfficiency float64
	// TotalInterruptions counts failures that hit running jobs.
	TotalInterruptions int
	// TotalLostWorkHours is work discarded by rollbacks.
	TotalLostWorkHours float64
	// MeanAvailability averages node availability.
	MeanAvailability float64
	// TotalRetries counts re-runs of interrupted jobs.
	TotalRetries int
	// FencedNodeHours is capacity withheld by the fencing policy: hours
	// nodes sat up but inadmissible.
	FencedNodeHours float64
	// LostToDetectionHours is the slice of lost work accrued between
	// true failures and their observation.
	LostToDetectionHours float64
	// InjectedFailures and CascadeFailures count scenario-injected
	// faults (cascades are a subset of injected).
	InjectedFailures int
	CascadeFailures  int
	// GoodputHours is useful work delivered by completed jobs; Goodput
	// normalizes it by total node capacity (nodes x elapsed hours).
	GoodputHours float64
	Goodput      float64
}

// Collect computes metrics at the current simulation time.
func (c *Cluster) Collect() Metrics {
	var m Metrics
	var effSum float64
	for _, j := range c.started {
		if j.Done() {
			m.JobsCompleted++
			effSum += j.Efficiency()
			m.GoodputHours += j.cfg.WorkHours
		} else {
			m.JobsUnfinished++
			if j.Abandoned() {
				m.JobsAbandoned++
			}
		}
		m.TotalInterruptions += j.Interruptions()
		m.TotalLostWorkHours += j.LostWorkHours()
		m.TotalRetries += j.Retries()
		m.LostToDetectionHours += j.LostToDetectionHours()
	}
	for _, q := range c.queue {
		if q.job == nil { // retries are already counted via started
			m.JobsUnfinished++
		}
	}
	if m.JobsCompleted > 0 {
		m.MeanEfficiency = effSum / float64(m.JobsCompleted)
	}
	var availSum float64
	for _, n := range c.nodes {
		availSum += n.Availability()
	}
	if len(c.nodes) > 0 {
		m.MeanAvailability = availSum / float64(len(c.nodes))
	}
	if f := c.fencing(); f != nil {
		m.FencedNodeHours = f.FencedNodeHours(c.engine.Now())
	}
	if c.injector != nil {
		m.InjectedFailures = c.injector.InjectedFailures()
		m.CascadeFailures = c.injector.CascadeFailures()
	}
	if capacity := float64(len(c.nodes)) * c.engine.Now().Hours(); capacity > 0 {
		m.Goodput = m.GoodputHours / capacity
	}
	return m
}
