package sim

import (
	"fmt"
	"time"
)

// JobConfig describes a long-running simulation job of the kind that
// dominates LANL workloads (Section 2.2): months of computation protected
// by periodic checkpoints.
type JobConfig struct {
	// ID identifies the job.
	ID int
	// WorkHours is the total computation required, in node-set hours.
	WorkHours float64
	// CheckpointInterval is the time between checkpoints, in hours; zero
	// disables checkpointing (failures restart the job from scratch).
	CheckpointInterval float64
	// CheckpointCostHours is the wall-clock overhead of writing one
	// checkpoint.
	CheckpointCostHours float64
	// RestartCostHours is the wall-clock cost of restarting after a
	// failure (re-reading the checkpoint, re-spawning processes).
	RestartCostHours float64
}

// Validate checks the configuration.
func (c JobConfig) Validate() error {
	if c.WorkHours <= 0 {
		return fmt.Errorf("sim: job %d: non-positive work %g", c.ID, c.WorkHours)
	}
	if c.CheckpointInterval < 0 || c.CheckpointCostHours < 0 || c.RestartCostHours < 0 {
		return fmt.Errorf("sim: job %d: negative checkpoint parameters", c.ID)
	}
	return nil
}

// jobState tracks the run-time phase of a job.
type jobState int

const (
	jobPending jobState = iota + 1
	jobRunning
	jobWaitingRepair
	jobDone
	// jobAbandoned means the job was interrupted and its retry budget
	// is exhausted; it will never run again.
	jobAbandoned
)

// Job is a running simulation job with periodic checkpointing. When any of
// its nodes fails, work since the last checkpoint is lost and the job waits
// for repair, then pays the restart cost and resumes — the failure-handling
// protocol Section 2.2 describes.
type Job struct {
	cfg    JobConfig
	engine *Engine
	nodes  []*Node

	state jobState
	epoch uint64 // invalidates stale scheduled events

	savedProgress float64       // hours of work captured by checkpoints
	runStart      time.Duration // when the current burst of progress began
	downNodes     map[int]bool

	// Metrics.
	startedAt       time.Duration
	finishedAt      time.Duration
	interruptions   int
	lostWork        float64
	lostToDetection float64
	checkpoints     int
	retries         int

	onDone func(*Job)
	// onAbort, when set, switches the job to release-and-requeue failure
	// handling: a node failure frees the surviving nodes and hands the
	// job back to the cluster instead of camping on the failed node until
	// it is repaired.
	onAbort func(*Job)
}

var _ FailureListener = (*Job)(nil)

// startJob begins executing a job on the given nodes at the current
// simulation time. All nodes must currently be up.
func startJob(engine *Engine, cfg JobConfig, nodes []*Node, onDone, onAbort func(*Job)) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sim: job %d: no nodes", cfg.ID)
	}
	for _, n := range nodes {
		if n.State() != StateUp {
			return nil, fmt.Errorf("sim: job %d: node %d is down", cfg.ID, n.ID)
		}
	}
	j := &Job{
		cfg:       cfg,
		engine:    engine,
		nodes:     nodes,
		state:     jobRunning,
		downNodes: make(map[int]bool),
		startedAt: engine.Now(),
		runStart:  engine.Now(),
		onDone:    onDone,
		onAbort:   onAbort,
	}
	for _, n := range nodes {
		n.Subscribe(j)
	}
	if err := j.scheduleNextEvents(); err != nil {
		return nil, err
	}
	return j, nil
}

// Config returns the job's configuration.
func (j *Job) Config() JobConfig { return j.cfg }

// Done reports whether the job completed.
func (j *Job) Done() bool { return j.state == jobDone }

// Abandoned reports whether the job exhausted its retry budget.
func (j *Job) Abandoned() bool { return j.state == jobAbandoned }

// Retries returns how many times the job was re-queued after an
// interruption.
func (j *Job) Retries() int { return j.retries }

// LostToDetectionHours returns the part of the lost work accrued while
// a failure had happened but was not yet observed.
func (j *Job) LostToDetectionHours() float64 { return j.lostToDetection }

// Interruptions returns how many node failures hit the job.
func (j *Job) Interruptions() int { return j.interruptions }

// Checkpoints returns how many checkpoints completed.
func (j *Job) Checkpoints() int { return j.checkpoints }

// LostWorkHours returns the total work discarded by rollbacks.
func (j *Job) LostWorkHours() float64 { return j.lostWork }

// WallHours returns the job's makespan (so far, if unfinished).
func (j *Job) WallHours() float64 {
	end := j.engine.Now()
	if j.state == jobDone {
		end = j.finishedAt
	}
	return (end - j.startedAt).Hours()
}

// Efficiency returns useful work divided by wall time; 0 until some wall
// time has elapsed.
func (j *Job) Efficiency() float64 {
	wall := j.WallHours()
	if wall <= 0 {
		return 0
	}
	return j.cfg.WorkHours / wall
}

// progressNow returns completed work at the current instant.
func (j *Job) progressNow() float64 {
	if j.state != jobRunning {
		return j.savedProgress
	}
	elapsed := (j.engine.Now() - j.runStart).Hours()
	if elapsed < 0 {
		elapsed = 0 // inside a checkpoint-cost window
	}
	p := j.savedProgress + elapsed
	if p > j.cfg.WorkHours {
		p = j.cfg.WorkHours
	}
	return p
}

// scheduleNextEvents arms the next checkpoint or completion event for the
// current epoch.
func (j *Job) scheduleNextEvents() error {
	epoch := j.epoch
	remaining := j.cfg.WorkHours - j.savedProgress
	completionDelay := j.runStart + time.Duration(remaining*float64(time.Hour)) - j.engine.Now()
	if completionDelay < 0 {
		completionDelay = 0
	}
	if j.cfg.CheckpointInterval > 0 && remaining > j.cfg.CheckpointInterval {
		ckptDelay := j.runStart + time.Duration(j.cfg.CheckpointInterval*float64(time.Hour)) - j.engine.Now()
		if ckptDelay < 0 {
			ckptDelay = 0
		}
		return j.engine.Schedule(ckptDelay, func() { j.checkpoint(epoch) })
	}
	return j.engine.Schedule(completionDelay, func() { j.complete(epoch) })
}

// nodesTrulyUp reports whether every node is actually up — with
// detection latency a node can be dead while the job still believes it
// is running, and checkpoints or completions must not succeed on it.
func (j *Job) nodesTrulyUp() bool {
	for _, n := range j.nodes {
		if n.State() != StateUp {
			return false
		}
	}
	return true
}

// checkpoint captures progress and pays the checkpoint cost by pushing
// runStart forward, then arms the next event. On a truly-dead node the
// write fails silently; the pending failure observation will roll the
// job back and restart the event chain.
func (j *Job) checkpoint(epoch uint64) {
	if epoch != j.epoch || j.state != jobRunning || !j.nodesTrulyUp() {
		return
	}
	j.savedProgress = j.progressNow()
	j.checkpoints++
	// The cost window: no progress accrues for CheckpointCostHours.
	j.runStart = j.engine.Now() + time.Duration(j.cfg.CheckpointCostHours*float64(time.Hour))
	if err := j.scheduleNextEvents(); err != nil {
		panic(fmt.Sprintf("sim: job %d: %v", j.cfg.ID, err))
	}
}

// complete finishes the job and releases its nodes. Completion cannot
// happen on a truly-dead node (see checkpoint).
func (j *Job) complete(epoch uint64) {
	if epoch != j.epoch || j.state != jobRunning || !j.nodesTrulyUp() {
		return
	}
	j.state = jobDone
	j.finishedAt = j.engine.Now()
	for _, n := range j.nodes {
		n.Unsubscribe(j)
	}
	if j.onDone != nil {
		j.onDone(j)
	}
}

// recordInterruption accounts the rollback: all work since the last
// checkpoint is lost, and the slice of it accrued during the failed
// node's detection lag is attributed to detection latency.
func (j *Job) recordInterruption(n *Node) {
	j.interruptions++
	loss := j.progressNow() - j.savedProgress
	j.lostWork += loss
	if lag := n.DetectionLag(); lag > 0 {
		d := lag.Hours()
		if d > loss {
			d = loss
		}
		j.lostToDetection += d
	}
}

// NodeFailed implements FailureListener. Without an abort handler the
// job rolls back to the last checkpoint and waits for repair; with one
// (resilient clusters) it releases its nodes and is handed back to the
// cluster for re-queueing.
func (j *Job) NodeFailed(n *Node, at time.Duration) {
	if j.state == jobDone || j.state == jobAbandoned {
		return
	}
	if j.onAbort != nil {
		if j.state != jobRunning {
			return
		}
		j.recordInterruption(n)
		j.state = jobPending
		j.epoch++ // cancel any armed checkpoint/completion event
		for _, m := range j.nodes {
			m.Unsubscribe(j)
		}
		j.nodes = nil
		clear(j.downNodes)
		j.onAbort(j)
		return
	}
	j.downNodes[n.ID] = true
	if j.state != jobRunning {
		return
	}
	j.recordInterruption(n)
	j.state = jobWaitingRepair
	j.epoch++ // cancel any armed checkpoint/completion event
}

// NodeRepaired implements FailureListener: when the last down node returns,
// pay the restart cost and resume from the last checkpoint.
func (j *Job) NodeRepaired(n *Node, at time.Duration) {
	if j.state != jobWaitingRepair {
		return
	}
	delete(j.downNodes, n.ID)
	if len(j.downNodes) > 0 {
		return
	}
	j.state = jobRunning
	j.resumeAfterRestart()
}

// resumeAfterRestart pays the restart cost and re-arms the job's
// checkpoint/completion events. The job must already be jobRunning.
func (j *Job) resumeAfterRestart() {
	j.epoch++
	epoch := j.epoch
	restart := time.Duration(j.cfg.RestartCostHours * float64(time.Hour))
	j.runStart = j.engine.Now() + restart
	if err := j.engine.Schedule(restart, func() {
		if epoch != j.epoch || j.state != jobRunning {
			return
		}
		if err := j.scheduleNextEvents(); err != nil {
			panic(fmt.Sprintf("sim: job %d: %v", j.cfg.ID, err))
		}
	}); err != nil {
		panic(fmt.Sprintf("sim: job %d: %v", j.cfg.ID, err))
	}
}

// resume restarts an aborted job on a fresh node set, continuing from
// its last checkpoint. All nodes must be up.
func (j *Job) resume(nodes []*Node) error {
	if j.state != jobPending {
		return fmt.Errorf("sim: job %d: resume while not pending", j.cfg.ID)
	}
	if len(nodes) == 0 {
		return fmt.Errorf("sim: job %d: resume with no nodes", j.cfg.ID)
	}
	for _, n := range nodes {
		if n.State() != StateUp {
			return fmt.Errorf("sim: job %d: resume on down node %d", j.cfg.ID, n.ID)
		}
	}
	j.nodes = append([]*Node(nil), nodes...)
	for _, n := range nodes {
		n.Subscribe(j)
	}
	j.retries++
	j.state = jobRunning
	j.resumeAfterRestart()
	return nil
}

// abandon marks the job as permanently failed.
func (j *Job) abandon() { j.state = jobAbandoned }
