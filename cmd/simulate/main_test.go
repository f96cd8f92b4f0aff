package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
	"hpcfail/internal/sim"
)

// collapse reduces runs of whitespace to single spaces so assertions are
// independent of column padding.
func collapse(s string) string {
	return regexp.MustCompile(`\s+`).ReplaceAllString(s, " ")
}

func TestModelMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-mode", "model", "-tbf", "weibull:0.7:150", "-ttr", "lognormal:0:1.2",
		"-nodes", "8", "-jobs", "4", "-work", "100", "-interval", "8",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(collapse(text), "jobs completed 4") {
		t.Fatalf("output:\n%s", text)
	}
	if !strings.Contains(text, "first-fit") {
		t.Fatalf("missing scheduler name:\n%s", text)
	}
}

func TestReplayMode(t *testing.T) {
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{12}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := failures.WriteCSV(f, dataset); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{
		"-mode", "replay", "-data", path, "-system", "12",
		"-jobs", "3", "-work", "200", "-interval", "12", "-horizon", "100000",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(collapse(out.String()), "jobs completed 3") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestReplayLenient(t *testing.T) {
	dataset, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{12}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := failures.WriteCSV(&buf, dataset); err != nil {
		t.Fatal(err)
	}
	// Corrupt the trace: inject a row with a bogus root cause and one with
	// the wrong field count between valid records.
	lines := strings.SplitAfter(buf.String(), "\n")
	corrupted := lines[0] + "1,0,E,compute,Bogus,2000-01-01T00:00:00Z,2000-01-01T01:00:00Z,\n" +
		"1,2,E\n" + strings.Join(lines[1:], "")
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	args := []string{
		"-mode", "replay", "-data", path, "-system", "12",
		"-jobs", "3", "-work", "200", "-interval", "12", "-horizon", "100000",
	}
	var out bytes.Buffer
	if err := run(args, &out); err == nil {
		t.Fatal("strict replay of corrupted trace: want error")
	}
	out.Reset()
	if err := run(append(args, "-lenient"), &out); err != nil {
		t.Fatalf("lenient replay: %v", err)
	}
	if !strings.Contains(collapse(out.String()), "jobs completed 3") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestSchedulerFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-mode", "model", "-nodes", "6", "-jobs", "2", "-work", "50",
		"-scheduler", "reliability-aware",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "reliability-aware") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-mode", "bogus"},
		{"-mode", "replay"},                         // missing -data
		{"-mode", "replay", "-data", "/nope"},       // missing file
		{"-tbf", "weibull:abc:1"},                   // unparseable param
		{"-tbf", "weibull:1"},                       // wrong arity
		{"-tbf", "cauchy:1:2"},                      // unknown family
		{"-ttr", "lognormal:0"},                     // wrong arity
		{"-scheduler", "bogus"},                     // unknown scheduler
		{"-nodes", "0"},                             // empty cluster
		{"-nodes", "2", "-nodes-per-job", "5"},      // oversize job
		{"-work", "-1"},                             // invalid job
		{"-horizon", "-5"},                          // negative horizon
		{"-horizon", "0"},                           // zero horizon
		{"-nodes-per-job", "0"},                     // empty allocation
		{"-jobs", "-1"},                             // negative job count
		{"-retry", "bogus"},                         // unknown retry policy
		{"-retry", "immediate:1"},                   // immediate takes no params
		{"-retry", "fixed:abc"},                     // unparseable delay
		{"-retry", "expo:1"},                        // wrong arity
		{"-retry", "expo:1:8:2"},                    // jitter outside [0,1]
		{"-retry", "fixed:1e13"},                    // delay past time.Duration
		{"-fence", "bogus"},                         // unknown fencing policy
		{"-fence", "window:0:48:24"},                // threshold < 1
		{"-fence", "window:2:48"},                   // wrong arity
		{"-detect", "bogus"},                        // unknown detection model
		{"-detect", "fixed:-1"},                     // negative lag
		{"-detect", "uniform:2:1"},                  // min > max
		{"-detect", "fixed:1e13"},                   // lag past time.Duration
		{"-burst", "1:2"},                           // wrong arity
		{"-burst", "1:0:4:2:24"},                    // probability > 1
		{"-burst", "1e13:0:4:1:2"},                  // burst time past time.Duration
		{"-nodes", "8", "-burst", "1:100:5:1:24"},   // burst past cluster end
		{"-repair-inflate", "10:5:2"},               // window ends before start
		{"-cascade", "xyz"},                         // unparseable cascade
		{"-mode", "replay", "-retry", "immediate"},  // resilience needs model mode
		{"-mode", "replay", "-burst", "1:0:4:1:24"}, // injection needs model mode
		{"-mode", "model", "-lenient"},              // lenient only applies to replay
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestResilienceFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-mode", "model", "-nodes", "8", "-jobs", "4", "-work", "100", "-interval", "8",
		"-retry", "expo:0.5:8:0.5", "-max-retries", "10",
		"-fence", "window:2:48:24", "-detect", "uniform:0.02:1",
		"-burst", "50:0:4:1:24", "-cascade", "0.5:0.1:12",
		"-repair-inflate", "40:200:3", "-horizon", "20000",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := collapse(out.String())
	for _, want := range []string{
		"jobs completed 4", "total retries", "fenced node hours",
		"lost to detection", "injected failures", "goodput",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestResilienceFlagsDeterministic(t *testing.T) {
	args := []string{
		"-mode", "model", "-nodes", "8", "-jobs", "4", "-work", "100", "-interval", "8",
		"-retry", "expo:0.5:8:0.5", "-fence", "window:2:48:24", "-detect", "fixed:0.25",
		"-burst", "50:0:4:1:24", "-seed", "3", "-inject-seed", "9", "-horizon", "20000",
	}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same flags, different output:\n%s\n---\n%s", a.String(), b.String())
	}
}

// The CLI's model mode must be a pure shell over sim.RunOne: parsing the
// flags and calling the library with the equivalent RunSpec have to agree
// byte for byte, or a configuration checked via cmd/simulate would behave
// differently inside a sweep that evaluates it through the library.
func TestFlagsAgreeWithRunOne(t *testing.T) {
	args := []string{
		"-mode", "model", "-tbf", "weibull:0.7:150", "-ttr", "lognormal:0:1.2",
		"-nodes", "12", "-jobs", "5", "-nodes-per-job", "2", "-work", "120",
		"-interval", "6", "-cost", "0.2", "-restart", "0.3",
		"-retry", "expo:0.5:8:0.5:2", "-max-retries", "6",
		"-fence", "window:2:48:24", "-detect", "fixed:0.1",
		"-burst", "50:0:4:1:24", "-repair-inflate", "40:200:3",
		"-cascade", "0.4:0.1:12",
		"-seed", "3", "-inject-seed", "9", "-horizon", "20000",
	}
	spec := sim.RunSpec{
		TBF: "weibull:0.7:150", TTR: "lognormal:0:1.2",
		Nodes: 12, Jobs: 5, NodesPerJob: 2, WorkHours: 120,
		CheckpointInterval: 6, CheckpointCost: 0.2, RestartCost: 0.3,
		Scheduler: "first-fit", Seed: 3, HorizonHours: 20000,
		Retry: "expo:0.5:8:0.5:2", MaxRetries: 6,
		Fence: "window:2:48:24", Detect: "fixed:0.1",
		Bursts: []string{"50:0:4:1:24"}, Inflate: "40:200:3", Cascade: "0.4:0.1:12",
		InjectSeed: 9,
	}
	var viaFlags bytes.Buffer
	if err := run(args, &viaFlags); err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if viaLibrary := reportTable(res); viaFlags.String() != viaLibrary {
		t.Fatalf("flag path and library path disagree:\n%s\n---\n%s", viaFlags.String(), viaLibrary)
	}
}

// Validation must reject a bad configuration before any simulation work,
// through both entry points.
func TestRunSpecValidationAgreesWithFlags(t *testing.T) {
	bad := sim.RunSpec{
		TBF: "weibull:0.7:150", TTR: "lognormal:0:1.2",
		Nodes: 4, Jobs: 2, NodesPerJob: 1, WorkHours: 50,
		Scheduler: "first-fit", HorizonHours: 1000,
		Retry: "expo:1:8:2", // jitter outside [0, 1]
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("RunSpec.Validate accepted jitter > 1")
	}
	var out bytes.Buffer
	if err := run([]string{"-retry", "expo:1:8:2"}, &out); err == nil {
		t.Fatal("flag path accepted jitter > 1")
	}
}

func TestParseDist(t *testing.T) {
	d, err := sim.ParseDistSpec("exponential:0.5")
	if err != nil || d.Name() != "exponential" {
		t.Fatalf("%v, %v", d, err)
	}
	d, err = sim.ParseDistSpec("gamma:2:50")
	if err != nil || d.Name() != "gamma" {
		t.Fatalf("%v, %v", d, err)
	}
}
