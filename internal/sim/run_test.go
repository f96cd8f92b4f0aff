package sim

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"hpcfail/internal/resilience"
)

// scenarioSpecs are the injection variants the replay-determinism
// contract must hold for: each exercises a different injector code path
// (scheduled bursts, failure-triggered cascades, time-windowed repair
// inflation, and all three stacked).
var scenarioSpecs = []struct {
	name    string
	mutate  func(*RunSpec)
	injects bool
}{
	{"bursts", func(s *RunSpec) { s.Bursts = []string{"50:0:4:0.9:24:2", "300:4:4:0.9:24:2"} }, true},
	{"cascade", func(s *RunSpec) { s.Cascade = "0.6:0.1:12" }, false},
	{"inflate", func(s *RunSpec) { s.Inflate = "100:900:4" }, false},
	{"stacked", func(s *RunSpec) {
		s.Bursts = []string{"50:0:4:0.9:24:2"}
		s.Cascade = "0.5:0.1:12"
		s.Inflate = "100:900:4"
	}, true},
}

// baseRunSpec is a busy little cluster with the full policy stack armed,
// so scenario replays exercise retry, fencing and detection interactions.
func baseRunSpec(seed, injectSeed int64) RunSpec {
	return RunSpec{
		TBF: "weibull:0.7:120", TTR: "lognormal:0:1.2",
		Nodes: 8, Jobs: 12, NodesPerJob: 2, WorkHours: 150,
		CheckpointInterval: 8, CheckpointCost: 0.25, RestartCost: 0.25,
		Scheduler: "first-fit", Seed: seed, HorizonHours: 2000,
		Retry: "expo:0.5:24:0.5", MaxRetries: 8,
		Fence: "window:2:72:24", Detect: "fixed:0.1",
		InjectSeed: injectSeed,
	}
}

// Replaying any injected scenario under an identical seed pair must
// reproduce the metrics exactly, for every scenario kind and several
// seeds — the property the sweep engine's whole determinism contract
// rests on.
func TestScenarioReplayDeterminism(t *testing.T) {
	for _, sc := range scenarioSpecs {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				spec := baseRunSpec(seed, seed*17)
				sc.mutate(&spec)
				a, err := RunOne(spec)
				if err != nil {
					t.Fatal(err)
				}
				b, err := RunOne(spec)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("seed %d: same spec diverged:\n  run 1: %+v\n  run 2: %+v", seed, a, b)
				}
				if a.Metrics.InjectedFailures == 0 && sc.injects {
					t.Fatalf("seed %d: scenario injected nothing; determinism check is vacuous", seed)
				}
				if a.Metrics.TotalRetries == 0 {
					t.Fatalf("seed %d: no retries; determinism check is vacuous", seed)
				}
			}
		})
	}
}

// Different seeds must actually change the trajectory — otherwise the
// replicate averaging in a sweep is averaging one sample N times.
func TestScenarioReplaySeedsDiffer(t *testing.T) {
	spec1 := baseRunSpec(1, 17)
	spec2 := baseRunSpec(2, 34)
	spec1.Bursts = []string{"50:0:4:0.9:24:2"}
	spec2.Bursts = []string{"50:0:4:0.9:24:2"}
	a, err := RunOne(spec1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("seeds 1 and 2 produced identical metrics; suspicious")
	}
}

// Scheduled burst injection draws only from the injector's own stream,
// and node failure/repair draws come from per-node streams split before
// any policy machinery runs — so the injected-failure count must be
// identical across retry and fencing policy variations on the same seed
// pair. This is what makes grid points comparable: policies respond to
// the same storms, they don't reshape them.
func TestBurstInjectionIndependentOfPolicy(t *testing.T) {
	policies := []struct{ retry, fence string }{
		{"none", "none"},
		{"immediate", "none"},
		{"expo:0.5:24:0.5", "none"},
		{"none", "window:2:72:24"},
		{"expo:1:24:0.5:3", "window:3:48:24"},
	}
	var want int
	for i, p := range policies {
		spec := baseRunSpec(5, 55)
		spec.Retry, spec.Fence, spec.Detect = p.retry, p.fence, "none"
		spec.Bursts = []string{"50:0:6:0.9:24:2", "400:2:4:0.9:24:2"}
		res, err := RunOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Metrics.InjectedFailures
			if want == 0 {
				t.Fatal("no injections; independence check is vacuous")
			}
			continue
		}
		if res.Metrics.InjectedFailures != want {
			t.Fatalf("policy %+v: injected = %d, want %d (policy perturbed the injected fault load)",
				p, res.Metrics.InjectedFailures, want)
		}
	}
}

// RunOne must reject what Validate rejects, with no simulation attempted.
func TestRunOneValidation(t *testing.T) {
	mutations := []func(*RunSpec){
		func(s *RunSpec) { s.TBF = "cauchy:1:2" },
		func(s *RunSpec) { s.Nodes = 0 },
		func(s *RunSpec) { s.NodesPerJob = 99 },
		func(s *RunSpec) { s.HorizonHours = -1 },
		func(s *RunSpec) { s.HorizonHours = 1e13 },
		func(s *RunSpec) { s.Retry = "expo:1:8:2" },
		func(s *RunSpec) { s.Fence = "window:0:48:24" },
		func(s *RunSpec) { s.Detect = "uniform:2:1" },
		func(s *RunSpec) { s.Bursts = []string{"1:100:5:1:24"} },
		func(s *RunSpec) { s.Inflate = "10:5:2" },
		func(s *RunSpec) { s.Cascade = "xyz" },
	}
	for i, mutate := range mutations {
		spec := baseRunSpec(1, 1)
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted a bad spec", i)
		}
		if _, err := RunOne(spec); err == nil {
			t.Errorf("mutation %d: RunOne accepted a bad spec", i)
		}
	}
}

// TestSpecHoursOutsideDuration checks that every spec parser rejects an
// hour value that time.Duration cannot hold (beyond ±2^63 ns, about
// ±2.56 million hours, or NaN or ±Inf) and names the token, instead of
// wrapping it into a nonsense duration.
func TestSpecHoursOutsideDuration(t *testing.T) {
	cases := []struct {
		name, token string
		parse       func() error
	}{
		{"retry fixed", "fixed:1e13", func() error { _, err := ParseRetrySpec("fixed:1e13", 3); return err }},
		{"retry fixed NaN", "fixed:NaN", func() error { _, err := ParseRetrySpec("fixed:NaN", 3); return err }},
		{"retry expo base", "expo:Inf:8:0.5", func() error { _, err := ParseRetrySpec("expo:Inf:8:0.5", 3); return err }},
		{"retry expo max", "expo:1:1e13:0.5", func() error { _, err := ParseRetrySpec("expo:1:1e13:0.5", 3); return err }},
		{"fence window", "window:2:1e13:24", func() error { _, err := ParseFenceSpec("window:2:1e13:24"); return err }},
		{"fence probation", "window:2:48:-Inf", func() error { _, err := ParseFenceSpec("window:2:48:-Inf"); return err }},
		{"detect fixed", "fixed:1e13", func() error { _, err := ParseDetectSpec("fixed:1e13"); return err }},
		{"detect uniform", "uniform:NaN:1", func() error { _, err := ParseDetectSpec("uniform:NaN:1"); return err }},
		{"burst at", "1e13:0:4:1:2", func() error { _, err := ParseBurstSpec("1e13:0:4:1:2"); return err }},
		{"burst at negative", "-1e13:0:4:1:2", func() error { _, err := ParseBurstSpec("-1e13:0:4:1:2"); return err }},
		{"burst spread", "1:0:4:1:2:Inf", func() error { _, err := ParseBurstSpec("1:0:4:1:2:Inf"); return err }},
		{"inflate", "0:1e13:2", func() error { _, err := ParseScenarioSpec(nil, "0:1e13:2", ""); return err }},
		{"cascade", "0.5:NaN:12", func() error { _, err := ParseScenarioSpec(nil, "", "0.5:NaN:12"); return err }},
	}
	for _, c := range cases {
		err := c.parse()
		if err == nil {
			t.Errorf("%s: %q accepted", c.name, c.token)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(c.token)) || !strings.Contains(err.Error(), "range of a duration") {
			t.Errorf("%s: error %q does not name %q and the duration range", c.name, err, c.token)
		}
	}
	// Hour values a duration holds still parse.
	r, err := ParseRetrySpec("fixed:2.5e6", 3)
	if err != nil {
		t.Fatalf("fixed:2.5e6: %v", err)
	}
	if got := r.(resilience.FixedBackoff).Delay; got != 2.5e6*time.Hour {
		t.Fatalf("fixed:2.5e6 delay = %v", got)
	}
}
