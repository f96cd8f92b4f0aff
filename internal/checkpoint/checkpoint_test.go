package checkpoint

import (
	"errors"
	"math"
	"testing"

	"hpcfail/internal/dist"
)

func TestYoungInterval(t *testing.T) {
	tau, err := YoungInterval(0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 0.1 * 100)
	if math.Abs(tau-want) > 1e-12 {
		t.Fatalf("young = %g, want %g", tau, want)
	}
	if _, err := YoungInterval(0, 100); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero cost: want ErrBadInput")
	}
	if _, err := YoungInterval(1, -1); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative mtbf: want ErrBadInput")
	}
}

func TestDalyInterval(t *testing.T) {
	// For small cost/MTBF, Daly ~ Young - C.
	young, err := YoungInterval(0.05, 500)
	if err != nil {
		t.Fatal(err)
	}
	daly, err := DalyInterval(0.05, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(daly-(young-0.05)) > 0.2 {
		t.Fatalf("daly = %g, young - C = %g", daly, young-0.05)
	}
	// For absurd cost, Daly falls back to MTBF.
	daly, err = DalyInterval(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if daly != 100 {
		t.Fatalf("daly with huge cost = %g, want MTBF", daly)
	}
	if _, err := DalyInterval(-1, 100); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative cost: want error")
	}
}

func TestExpectedWasteConvexAndMinimizedNearYoung(t *testing.T) {
	const c, r, mtbf = 0.1, 0.2, 100.0
	young, err := YoungInterval(c, mtbf)
	if err != nil {
		t.Fatal(err)
	}
	wasteAt := func(tau float64) float64 { return exponentialWaste(tau, c, r, mtbf) }
	atYoung := wasteAt(young)
	if wasteAt(young/5) <= atYoung {
		t.Fatal("too-frequent checkpointing should waste more")
	}
	if wasteAt(young*5) <= atYoung {
		t.Fatal("too-rare checkpointing should waste more")
	}
	if atYoung <= 0 || atYoung >= 0.3 {
		t.Fatalf("waste at Young interval = %g, expect a small positive fraction", atYoung)
	}
}

// exponentialWaste is the long-run fraction of time wasted (checkpoint
// overhead, expected rework and restarts) with interval tau under a
// memoryless failure process of the given MTBF: by the renewal argument a
// segment of useful length tau takes E[T] = (e^{(tau+C)/mtbf} - 1)(mtbf + R).
// It is the function Young's interval approximately minimizes.
func exponentialWaste(tau, checkpointCost, restartCost, mtbf float64) float64 {
	eT := math.Expm1((tau+checkpointCost)/mtbf) * (mtbf + restartCost)
	return (eT - tau) / eT
}

func expDist(t *testing.T, mtbf float64) dist.Continuous {
	t.Helper()
	d, err := dist.NewExponential(1 / mtbf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func weibullDist(t *testing.T, shape, mean float64) dist.Continuous {
	t.Helper()
	d, err := dist.NewWeibull(shape, mean/math.Gamma(1+1/shape))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func baseConfig(t *testing.T, tbf dist.Continuous) SimConfig {
	t.Helper()
	return SimConfig{
		TBF:            tbf,
		CheckpointCost: 0.1,
		RestartCost:    0.2,
		WorkHours:      2000,
		Replications:   24,
		Seed:           42,
	}
}

func TestSimulateEfficiencyExponentialMatchesAnalytic(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	young, err := YoungInterval(cfg.CheckpointCost, 100)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := SimulateEfficiency(cfg, young)
	if err != nil {
		t.Fatal(err)
	}
	waste := exponentialWaste(young, cfg.CheckpointCost, cfg.RestartCost, 100)
	if math.Abs(eff-(1-waste)) > 0.03 {
		t.Fatalf("simulated efficiency %g vs analytic %g", eff, 1-waste)
	}
}

func TestSimulateEfficiencyIsDeterministic(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	a, err := SimulateEfficiency(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateEfficiency(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed gave %g and %g", a, b)
	}
}

func TestSimulateEfficiencyValidation(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	if _, err := SimulateEfficiency(cfg, 0); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero tau: want error")
	}
	cfg.TBF = nil
	if _, err := SimulateEfficiency(cfg, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("nil TBF: want error")
	}
	cfg = baseConfig(t, expDist(t, 100))
	cfg.WorkHours = 0
	if _, err := SimulateEfficiency(cfg, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("zero work: want error")
	}
	cfg = baseConfig(t, expDist(t, 100))
	cfg.RetryDelayHours = -1
	if _, err := SimulateEfficiency(cfg, 1); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative retry delay: want error")
	}
}

func TestRetryDelayLowersEfficiency(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	base, err := SimulateEfficiency(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RetryDelayHours = 5
	delayed, err := SimulateEfficiency(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if delayed >= base {
		t.Fatalf("efficiency with 5h retry delay %g >= without %g", delayed, base)
	}
	// The delay only adds wall time; useful work is unchanged.
	if delayed <= 0 {
		t.Fatalf("efficiency %g not positive", delayed)
	}
}

func TestOptimizeIntervalNearYoungForExponential(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	cfg.Replications = 48
	young, err := YoungInterval(cfg.CheckpointCost, 100)
	if err != nil {
		t.Fatal(err)
	}
	tau, eff, err := OptimizeInterval(cfg, 0.5, 80)
	if err != nil {
		t.Fatal(err)
	}
	// The optimum is flat; accept a generous band around Young.
	if tau < young/3 || tau > young*3 {
		t.Fatalf("optimized tau = %g, Young = %g", tau, young)
	}
	if eff < 0.8 || eff > 1 {
		t.Fatalf("efficiency at optimum = %g", eff)
	}
}

func TestWeibullForgivesLongIntervals(t *testing.T) {
	// Same mean TBF, shape 0.7 (the paper's finding). With a decreasing
	// hazard rate, surviving a long time makes imminent failure *less*
	// likely, so running far past Young's interval is less costly under
	// the Weibull than the memoryless model predicts — exactly why the
	// paper stresses that the exponential assumption misleads checkpoint
	// design. Near the optimum the two are close; at 8x Young the Weibull
	// clearly wins.
	expCfg := baseConfig(t, expDist(t, 100))
	wbCfg := baseConfig(t, weibullDist(t, 0.7, 100))
	expCfg.WorkHours = 5000
	wbCfg.WorkHours = 5000
	young, err := YoungInterval(0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	effExpLong, err := SimulateEfficiency(expCfg, 8*young)
	if err != nil {
		t.Fatal(err)
	}
	effWbLong, err := SimulateEfficiency(wbCfg, 8*young)
	if err != nil {
		t.Fatal(err)
	}
	if effWbLong <= effExpLong {
		t.Fatalf("weibull efficiency %g at 8x Young should exceed exponential %g",
			effWbLong, effExpLong)
	}
	// The Weibull optimizer still finds an interior optimum near Young.
	tau, eff, err := OptimizeInterval(wbCfg, 0.5, 80)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0.5 || tau >= 80 {
		t.Fatalf("weibull optimum %g hit the search boundary", tau)
	}
	if effAtYoung, err := SimulateEfficiency(wbCfg, young); err != nil || eff < effAtYoung-0.01 {
		t.Fatalf("optimized efficiency %g below Young's %g (err %v)", eff, effAtYoung, err)
	}
}

func TestOptimizeIntervalValidation(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	if _, _, err := OptimizeInterval(cfg, -1, 10); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative lo: want error")
	}
	if _, _, err := OptimizeInterval(cfg, 10, 5); !errors.Is(err, ErrBadInput) {
		t.Fatal("inverted range: want error")
	}
	cfg.TBF = nil
	if _, _, err := OptimizeInterval(cfg, 1, 10); !errors.Is(err, ErrBadInput) {
		t.Fatal("nil TBF: want error")
	}
}

func TestReplicationsDefault(t *testing.T) {
	cfg := baseConfig(t, expDist(t, 100))
	cfg.Replications = 0 // should default, not crash
	if _, err := SimulateEfficiency(cfg, 10); err != nil {
		t.Fatal(err)
	}
}
