package checkpoint

import (
	"errors"
	"math"
	"testing"

	"hpcfail/internal/dist"
)

func TestFixedPolicy(t *testing.T) {
	p := FixedPolicy(12)
	if p.Next(0) != 12 || p.Next(1e6) != 12 {
		t.Fatal("fixed policy must ignore age")
	}
	if p.Name() != "fixed(12.0h)" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestHazardPolicyAdaptsToAge(t *testing.T) {
	wb, err := dist.NewWeibull(0.7, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := HazardPolicy{TBF: wb, Cost: 0.1, Min: 0.5, Max: 100}
	// Decreasing hazard: interval grows with uptime.
	early := p.Next(1)
	late := p.Next(500)
	if !(late > early) {
		t.Fatalf("interval should grow with age: %.2f -> %.2f", early, late)
	}
	// Clamping.
	if p.Next(0) < p.Min-1e-12 {
		t.Fatal("below Min")
	}
	pTight := HazardPolicy{TBF: wb, Cost: 0.1, Min: 0.5, Max: 2}
	if pTight.Next(1e9) > 2 {
		t.Fatal("above Max")
	}
	if pTight.Name() != "hazard-adaptive" {
		t.Fatal("name")
	}
}

func TestHazardPolicyDegenerateHazard(t *testing.T) {
	// Weibull shape > 1 has hazard 0 at t=0: policy must fall back to Min.
	wb, err := dist.NewWeibull(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := HazardPolicy{TBF: wb, Cost: 0.1, Min: 1, Max: 50}
	if got := p.Next(0); got < 1 || math.IsNaN(got) {
		t.Fatalf("Next(0) = %g", got)
	}
}

func TestSimulatePolicyMatchesFixedSimulation(t *testing.T) {
	// A FixedPolicy must agree with SimulateEfficiency for the same tau,
	// and both must pay the retry delay after every failure.
	exp, err := dist.NewExponential(1.0 / 100)
	if err != nil {
		t.Fatal(err)
	}
	var noDelay float64
	for _, delay := range []float64{0, 5} {
		cfg := SimConfig{
			TBF: exp, CheckpointCost: 0.1, RestartCost: 0.2, RetryDelayHours: delay,
			WorkHours: 2000, Replications: 16, Seed: 5,
		}
		a, err := SimulateEfficiency(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SimulatePolicyEfficiency(cfg, FixedPolicy(10))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("delay %g: fixed policy (%g) diverges from plain simulation (%g)", delay, b, a)
		}
		if delay == 0 {
			noDelay = b
		} else if !(b < noDelay) {
			t.Fatalf("delay %g: policy efficiency %g not below %g without delay", delay, b, noDelay)
		}
	}
}

func TestHazardPolicyBeatsFixedUnderWeibull(t *testing.T) {
	// Under a strongly decreasing hazard, adapting the interval to uptime
	// should outperform the best fixed interval tuned by Young's rule.
	shape := 0.5
	mean := 100.0
	wb, err := dist.NewWeibull(shape, mean/math.Gamma(1+1/shape))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		TBF: wb, CheckpointCost: 0.1, RestartCost: 0.2,
		WorkHours: 20000, Replications: 48, Seed: 9,
	}
	young, err := YoungInterval(cfg.CheckpointCost, mean)
	if err != nil {
		t.Fatal(err)
	}
	fixedEff, err := SimulatePolicyEfficiency(cfg, FixedPolicy(young))
	if err != nil {
		t.Fatal(err)
	}
	adaptiveEff, err := SimulatePolicyEfficiency(cfg, HazardPolicy{
		TBF: wb, Cost: cfg.CheckpointCost, Min: 0.5, Max: 40 * young,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adaptiveEff <= fixedEff {
		t.Fatalf("hazard-adaptive (%g) should beat fixed Young (%g) at shape %.1f",
			adaptiveEff, fixedEff, shape)
	}
}

func TestSimulatePolicyValidation(t *testing.T) {
	exp, err := dist.NewExponential(0.01)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig{
		TBF: exp, CheckpointCost: 0.1, RestartCost: 0.2,
		WorkHours: 100, Replications: 4, Seed: 1,
	}
	if _, err := SimulatePolicyEfficiency(cfg, nil); !errors.Is(err, ErrBadInput) {
		t.Fatal("nil policy: want error")
	}
	if _, err := SimulatePolicyEfficiency(cfg, FixedPolicy(0)); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero interval: want error")
	}
	bad := cfg
	bad.TBF = nil
	if _, err := SimulatePolicyEfficiency(bad, FixedPolicy(1)); !errors.Is(err, ErrBadInput) {
		t.Fatal("nil TBF: want error")
	}
}
