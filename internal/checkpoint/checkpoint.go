// Package checkpoint analyzes periodic checkpointing strategies — the
// application domain the paper motivates (Section 1: "the design and
// analysis of checkpoint strategies relies on certain statistical
// properties of failures"). It provides the classic Young and Daly
// closed-form intervals, which assume exponential (memoryless) failures,
// and a simulation-based evaluator that works for any fitted distribution,
// exposing how the paper's Weibull finding shifts the optimum.
package checkpoint

import (
	"errors"
	"fmt"
	"math"

	"hpcfail/internal/dist"
	"hpcfail/internal/mathx"
	"hpcfail/internal/randx"
)

// ErrBadInput is returned for non-positive costs or rates.
var ErrBadInput = errors.New("checkpoint: invalid input")

// YoungInterval returns Young's first-order optimal checkpoint interval
// sqrt(2 * C * MTBF) for checkpoint cost C and mean time between failures
// MTBF (both in the same unit).
func YoungInterval(checkpointCost, mtbf float64) (float64, error) {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0, fmt.Errorf("young interval: cost=%g mtbf=%g: %w", checkpointCost, mtbf, ErrBadInput)
	}
	return math.Sqrt(2 * checkpointCost * mtbf), nil
}

// DalyInterval returns Daly's higher-order refinement of Young's interval,
// accurate when the checkpoint cost is not negligible relative to the MTBF.
func DalyInterval(checkpointCost, mtbf float64) (float64, error) {
	if checkpointCost <= 0 || mtbf <= 0 {
		return 0, fmt.Errorf("daly interval: cost=%g mtbf=%g: %w", checkpointCost, mtbf, ErrBadInput)
	}
	c := checkpointCost
	if c < 2*mtbf {
		return math.Sqrt(2*c*mtbf)*(1+math.Sqrt(c/(2*mtbf))/3+c/(9*2*mtbf)) - c, nil
	}
	return mtbf, nil
}

// SimConfig controls the renewal-reward simulation used for non-exponential
// TBF distributions.
type SimConfig struct {
	// TBF is the time-between-failure distribution (hours).
	TBF dist.Continuous
	// CheckpointCost and RestartCost are overheads in hours.
	CheckpointCost float64
	RestartCost    float64
	// RetryDelayHours is an extra delay paid before each restart — the
	// backoff a resilience retry policy imposes between a failure and
	// the re-run. Zero restarts immediately (the classic model).
	RetryDelayHours float64
	// WorkHours is the total useful work to simulate per replication.
	WorkHours float64
	// Replications averages this many independent runs (default 32).
	Replications int
	// Seed drives the simulation.
	Seed int64
}

func (c SimConfig) validate() error {
	if c.TBF == nil {
		return fmt.Errorf("checkpoint sim: nil TBF: %w", ErrBadInput)
	}
	if c.CheckpointCost <= 0 || c.RestartCost < 0 || c.WorkHours <= 0 {
		return fmt.Errorf("checkpoint sim: cost=%g restart=%g work=%g: %w",
			c.CheckpointCost, c.RestartCost, c.WorkHours, ErrBadInput)
	}
	if c.RetryDelayHours < 0 {
		return fmt.Errorf("checkpoint sim: retry delay %g: %w", c.RetryDelayHours, ErrBadInput)
	}
	return nil
}

// SimulateEfficiency estimates the useful-work fraction achieved with
// checkpoint interval tau under the configured failure process. Failures
// are drawn as a renewal process from cfg.TBF; each failure destroys work
// since the last checkpoint and costs RestartCost.
func SimulateEfficiency(cfg SimConfig, tau float64) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if tau <= 0 {
		return 0, fmt.Errorf("checkpoint sim: tau=%g: %w", tau, ErrBadInput)
	}
	reps := cfg.Replications
	if reps <= 0 {
		reps = 32
	}
	src := randx.NewSource(cfg.Seed)
	var totalWall float64
	for r := 0; r < reps; r++ {
		rep := src.Split()
		totalWall += simulateOnce(cfg, tau, rep)
	}
	meanWall := totalWall / float64(reps)
	return cfg.WorkHours / meanWall, nil
}

// simulateOnce runs one replication and returns the wall-clock hours needed
// to finish cfg.WorkHours of useful work.
func simulateOnce(cfg SimConfig, tau float64, src *randx.Source) float64 {
	var wall float64
	var done float64                 // checkpointed work
	nextFailure := cfg.TBF.Rand(src) // time until next failure, from now
	for done < cfg.WorkHours {
		segment := math.Min(tau, cfg.WorkHours-done)
		need := segment + cfg.CheckpointCost
		if cfg.WorkHours-done <= tau {
			need = segment // final segment needs no checkpoint
		}
		if nextFailure > need {
			// Segment completes.
			wall += need
			nextFailure -= need
			done += segment
			continue
		}
		// Failure mid-segment: lose partial work, wait out the retry
		// delay, pay restart, and draw a new failure horizon (the failed
		// component is repaired/replaced, so the renewal restarts).
		wall += nextFailure + cfg.RetryDelayHours + cfg.RestartCost
		nextFailure = cfg.TBF.Rand(src)
	}
	return wall
}

// OptimizeInterval finds the checkpoint interval that maximizes simulated
// efficiency for the configured failure process, searching [lo, hi] by
// golden section with common random numbers across evaluations.
func OptimizeInterval(cfg SimConfig, lo, hi float64) (tau, efficiency float64, err error) {
	if err := cfg.validate(); err != nil {
		return 0, 0, err
	}
	if lo <= 0 || hi <= lo {
		return 0, 0, fmt.Errorf("optimize interval: range [%g, %g]: %w", lo, hi, ErrBadInput)
	}
	// Golden-section on negative efficiency. Using the same seed for every
	// evaluation makes the noisy objective effectively deterministic in
	// tau (common random numbers).
	objective := func(t float64) float64 {
		eff, err := SimulateEfficiency(cfg, t)
		if err != nil {
			return math.Inf(1)
		}
		return -eff
	}
	best, err := mathx.GoldenSection(objective, lo, hi, (hi-lo)*1e-4)
	if err != nil {
		return 0, 0, fmt.Errorf("optimize interval: %w", err)
	}
	eff, err := SimulateEfficiency(cfg, best)
	if err != nil {
		return 0, 0, err
	}
	return best, eff, nil
}
