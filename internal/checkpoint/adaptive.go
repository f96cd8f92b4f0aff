package checkpoint

import (
	"fmt"
	"math"

	"hpcfail/internal/dist"
	"hpcfail/internal/randx"
)

// IntervalPolicy chooses the next checkpoint interval given the time since
// the last failure (hours). A fixed policy ignores the age; a hazard-aware
// policy exploits the paper's central finding — with a Weibull shape of
// 0.7–0.8 the hazard falls as uptime grows, so checkpoints can be spaced
// further apart the longer the system has been up.
type IntervalPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Next returns the next checkpoint interval (hours) when the time
	// since the last failure is age hours.
	Next(age float64) float64
}

// FixedPolicy checkpoints at a constant interval.
type FixedPolicy float64

var _ IntervalPolicy = FixedPolicy(0)

// Name implements IntervalPolicy.
func (f FixedPolicy) Name() string { return fmt.Sprintf("fixed(%.1fh)", float64(f)) }

// Next implements IntervalPolicy.
func (f FixedPolicy) Next(float64) float64 { return float64(f) }

// HazardPolicy spaces checkpoints by the instantaneous Young rule
// τ(t) = sqrt(2 C / h(t)), clamped to [Min, Max], where h is the hazard
// rate of the fitted TBF distribution at the current age. For a
// decreasing-hazard Weibull this checkpoints aggressively right after a
// failure and relaxes as uptime accumulates.
type HazardPolicy struct {
	// TBF is the fitted lifetime model exposing a hazard rate.
	TBF dist.Hazarder
	// Cost is the checkpoint cost in hours.
	Cost float64
	// Min and Max clamp the interval (hours).
	Min, Max float64
}

var _ IntervalPolicy = HazardPolicy{}

// Name implements IntervalPolicy.
func (h HazardPolicy) Name() string { return "hazard-adaptive" }

// Next implements IntervalPolicy.
func (h HazardPolicy) Next(age float64) float64 {
	rate := h.TBF.Hazard(age + h.Min/2) // evaluate slightly ahead of now
	var tau float64
	if rate <= 0 || math.IsInf(rate, 1) || math.IsNaN(rate) {
		tau = h.Min
	} else {
		tau = math.Sqrt(2 * h.Cost / rate)
	}
	if tau < h.Min {
		tau = h.Min
	}
	if tau > h.Max {
		tau = h.Max
	}
	return tau
}

// SimulatePolicyEfficiency estimates the useful-work fraction achieved by
// an interval policy under the configured failure process. Age-dependent
// policies see the true time since the last failure.
func SimulatePolicyEfficiency(cfg SimConfig, policy IntervalPolicy) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if policy == nil {
		return 0, fmt.Errorf("checkpoint: nil policy: %w", ErrBadInput)
	}
	reps := cfg.Replications
	if reps <= 0 {
		reps = 32
	}
	src := randx.NewSource(cfg.Seed)
	var totalWall float64
	for r := 0; r < reps; r++ {
		rep := src.Split()
		wall, err := simulatePolicyOnce(cfg, policy, rep)
		if err != nil {
			return 0, err
		}
		totalWall += wall
	}
	return cfg.WorkHours / (totalWall / float64(reps)), nil
}

// simulatePolicyOnce runs one replication under an interval policy and
// returns the wall-clock hours needed to finish cfg.WorkHours of useful
// work.
func simulatePolicyOnce(cfg SimConfig, policy IntervalPolicy, src *randx.Source) (float64, error) {
	var wall, done, age float64
	nextFailure := cfg.TBF.Rand(src) // time until next failure, from now
	for done < cfg.WorkHours {
		tau := policy.Next(age)
		if !(tau > 0) {
			return 0, fmt.Errorf("checkpoint: policy %s returned interval %g: %w",
				policy.Name(), tau, ErrBadInput)
		}
		segment := math.Min(tau, cfg.WorkHours-done)
		need := segment + cfg.CheckpointCost
		if cfg.WorkHours-done <= tau {
			need = segment // final segment needs no checkpoint
		}
		if nextFailure > need {
			wall += need
			age += need
			nextFailure -= need
			done += segment
			continue
		}
		// Failure mid-segment: lose partial work, wait out the retry
		// delay, pay restart, and draw a new failure horizon (the failed
		// component is repaired/replaced, so the renewal restarts).
		wall += nextFailure + cfg.RetryDelayHours + cfg.RestartCost
		age = 0
		nextFailure = cfg.TBF.Rand(src)
	}
	return wall, nil
}
