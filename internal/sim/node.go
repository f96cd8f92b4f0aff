package sim

import (
	"fmt"
	"math"
	"time"

	"hpcfail/internal/dist"
	"hpcfail/internal/randx"
	"hpcfail/internal/resilience"
)

// NodeState is the availability state of a node.
type NodeState int

// Node states.
const (
	// StateUp means the node is available for work.
	StateUp NodeState = iota + 1
	// StateDown means the node has failed and is being repaired.
	StateDown
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// FailureListener is notified when a node fails or returns to service.
type FailureListener interface {
	NodeFailed(n *Node, at time.Duration)
	NodeRepaired(n *Node, at time.Duration)
}

// Node is a simulated cluster node alternating between up and down
// periods. Durations come from pluggable providers: distribution-driven
// (NewNode) or scripted from a recorded trace (NewTraceNode).
type Node struct {
	// ID identifies the node within its cluster.
	ID int

	engine *Engine
	// nextTTF returns the delay until the next failure given the current
	// simulation time; nextTTR the following repair duration.
	nextTTF func(now time.Duration) time.Duration
	nextTTR func(now time.Duration) time.Duration
	state   NodeState
	// failEpoch invalidates armed failure events when a failure is
	// injected out of band (see InjectFailure).
	failEpoch uint64
	src       *randx.Source

	// detect, when set, delays failure observation (and hence repair
	// start): listeners hear about a failure only after the drawn lag.
	detect resilience.DetectionModel
	// lastLag is the detection lag of the most recent failure.
	lastLag time.Duration
	// repairScale, when set, multiplies every repair duration — the
	// injection hook for repair-time inflation scenarios.
	repairScale func(now time.Duration) float64

	listeners []FailureListener

	// Bookkeeping for availability metrics.
	upSince   time.Duration
	downSince time.Duration
	totalUp   time.Duration
	totalDown time.Duration
	failures  int
}

// Sampler draws random durations in hours. Every dist.Continuous satisfies
// it.
type Sampler interface {
	Rand(src *randx.Source) float64
}

var _ Sampler = dist.Continuous(nil)

// NewNode constructs a node whose failures and repairs are drawn from the
// given samplers (both in hours of simulation time).
func NewNode(id int, engine *Engine, tbf, ttr Sampler, src *randx.Source) (*Node, error) {
	if engine == nil || tbf == nil || ttr == nil || src == nil {
		return nil, fmt.Errorf("sim: node %d: nil dependency", id)
	}
	return &Node{
		ID:      id,
		engine:  engine,
		nextTTF: func(time.Duration) time.Duration { return hoursToDuration(tbf.Rand(src)) },
		nextTTR: func(time.Duration) time.Duration { return hoursToDuration(ttr.Rand(src)) },
		state:   StateUp,
		src:     src,
	}, nil
}

// SetDetection installs a detection model: listeners observe failures
// only after the model's lag, and repair begins at observation (nobody
// dispatches a technician for an unnoticed fault). A nil model restores
// instant detection. Models that draw randomness need the node to own a
// source, which trace-replay nodes do not.
func (n *Node) SetDetection(m resilience.DetectionModel) error {
	if m != nil && n.src == nil {
		return fmt.Errorf("sim: node %d: detection model needs a random source", n.ID)
	}
	n.detect = m
	return nil
}

// ScaleRepairs installs a multiplier applied to every repair duration,
// evaluated at the time the repair begins. Used by injection scenarios.
func (n *Node) ScaleRepairs(f func(now time.Duration) float64) { n.repairScale = f }

// DetectionLag returns the detection lag of the node's most recent
// failure — the window during which jobs kept computing on a dead node.
func (n *Node) DetectionLag() time.Duration { return n.lastLag }

// Subscribe registers a listener for this node's failure and repair events.
func (n *Node) Subscribe(l FailureListener) {
	n.listeners = append(n.listeners, l)
}

// Unsubscribe removes a previously registered listener.
func (n *Node) Unsubscribe(l FailureListener) {
	for i, x := range n.listeners {
		if x == l {
			n.listeners = append(n.listeners[:i], n.listeners[i+1:]...)
			return
		}
	}
}

// Start schedules the node's first failure. Call once before Engine.Run.
func (n *Node) Start() error {
	n.upSince = n.engine.Now()
	return n.scheduleFailure()
}

// State returns the node's current state.
func (n *Node) State() NodeState { return n.state }

// Failures returns how many times the node has failed.
func (n *Node) Failures() int { return n.failures }

// hoursToDuration converts a sample in hours to simulation time, flooring
// at one second so zero-length phases cannot stall the event loop, and
// capping at ~290 years so heavy-tailed samples cannot overflow
// time.Duration's int64 nanoseconds.
func hoursToDuration(h float64) time.Duration {
	const maxHours = 2.5e6 // ~285 years, safely inside int64 nanoseconds
	if h > maxHours {
		h = maxHours
	}
	d := time.Duration(h * float64(time.Hour))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// neverFail is the sentinel delay meaning "no further failures".
const neverFail = time.Duration(math.MaxInt64)

func (n *Node) scheduleFailure() error {
	ttf := n.nextTTF(n.engine.Now())
	if ttf == neverFail {
		return nil
	}
	epoch := n.failEpoch
	return n.engine.Schedule(ttf, func() { n.fail(epoch) })
}

// snapshotListeners copies the listener list so notifications survive
// listeners unsubscribing themselves mid-iteration (a job aborting on
// failure does exactly that).
func (n *Node) snapshotListeners() []FailureListener {
	return append([]FailureListener(nil), n.listeners...)
}

func (n *Node) fail(epoch uint64) {
	if epoch != n.failEpoch || n.state != StateUp {
		return
	}
	n.goDown(n.nextTTR)
}

// InjectFailure forces the node down right now with the given repair
// duration, bypassing its failure distribution — the entry point for
// scripted bursts and cascades. The armed natural failure is cancelled
// (the natural process resumes after repair). Returns false if the node
// is already down.
func (n *Node) InjectFailure(repair time.Duration) bool {
	if n.state != StateUp {
		return false
	}
	n.failEpoch++ // cancel the armed natural failure
	n.goDown(func(time.Duration) time.Duration { return repair })
	return true
}

// goDown transitions the node to StateDown, notifies listeners after
// the detection lag (if any), and schedules the repair — which starts
// at observation, not at the true failure instant.
func (n *Node) goDown(repairOf func(now time.Duration) time.Duration) {
	now := n.engine.Now()
	n.state = StateDown
	n.failures++
	n.totalUp += now - n.upSince
	n.downSince = now
	var lag time.Duration
	if n.detect != nil {
		if lag = n.detect.Latency(n.src); lag < 0 {
			lag = 0
		}
	}
	n.lastLag = lag
	observe := func() {
		at := n.engine.Now()
		for _, l := range n.snapshotListeners() {
			l.NodeFailed(n, at)
		}
		repair := repairOf(at)
		if n.repairScale != nil {
			repair = time.Duration(float64(repair) * n.repairScale(at))
		}
		if repair < time.Second {
			repair = time.Second
		}
		// Schedule can only fail on a negative delay, which the clamp
		// above rules out.
		if err := n.engine.Schedule(repair, n.repairDone); err != nil {
			panic(fmt.Sprintf("sim: schedule repair: %v", err))
		}
	}
	if lag <= 0 {
		observe()
		return
	}
	if err := n.engine.Schedule(lag, observe); err != nil {
		panic(fmt.Sprintf("sim: schedule detection: %v", err))
	}
}

func (n *Node) repairDone() {
	now := n.engine.Now()
	n.state = StateUp
	n.totalDown += now - n.downSince
	n.upSince = now
	for _, l := range n.snapshotListeners() {
		l.NodeRepaired(n, now)
	}
	if err := n.scheduleFailure(); err != nil {
		panic(fmt.Sprintf("sim: schedule failure: %v", err))
	}
}

// Availability returns the fraction of elapsed simulation time this node
// was up, accounting for the in-progress phase.
func (n *Node) Availability() float64 {
	now := n.engine.Now()
	up, down := n.totalUp, n.totalDown
	switch n.state {
	case StateUp:
		up += now - n.upSince
	case StateDown:
		down += now - n.downSince
	}
	total := up + down
	if total == 0 {
		return 1
	}
	return float64(up) / float64(total)
}

// MTBFHours returns the node's observed mean time between failures in
// hours, or +Inf when it has never failed.
func (n *Node) MTBFHours() float64 {
	if n.failures == 0 {
		return float64(n.engine.Now()) / float64(time.Hour)
	}
	up := n.totalUp
	if n.state == StateUp {
		up += n.engine.Now() - n.upSince
	}
	return up.Hours() / float64(n.failures)
}
