// Command simulate runs a checkpointed job stream over a simulated
// cluster. Nodes fail either by a parametric model (-mode model) or by
// replaying a recorded failure trace (-mode replay), making it easy to ask
// "what would this checkpoint interval have cost on system 20's actual
// nine years of failures?"
//
// Usage:
//
//	simulate -mode model -tbf weibull:0.7:150 -ttr lognormal:0:1.2 \
//	         -nodes 32 -jobs 8 -nodes-per-job 2 -work 300 -interval 10
//	simulate -mode replay -data trace.csv -system 20 -jobs 10 -work 500
//
// Model mode is a thin shell over sim.RunOne — the same library call the
// sweep engine (cmd/sweep) evaluates thousands of times — so a single
// configuration checked here behaves identically inside a sweep. Replay
// mode is a shell over sim.RunReplay.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpcfail/internal/failures"
	"hpcfail/internal/report"
	"hpcfail/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "simulate:", err)
		fmt.Fprintln(os.Stderr, "run 'simulate -h' for usage")
		os.Exit(1)
	}
}

// multiFlag collects repeated occurrences of a flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

type options struct {
	mode    string
	data    string
	lenient bool
	system  int
	spec    sim.RunSpec
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var o options
	var bursts multiFlag
	fs.StringVar(&o.mode, "mode", "model", "failure source: model or replay")
	fs.StringVar(&o.data, "data", "", "CSV trace for replay mode")
	fs.BoolVar(&o.lenient, "lenient", false, "skip malformed trace rows instead of aborting (replay mode)")
	fs.IntVar(&o.system, "system", 20, "system ID for replay mode")
	fs.StringVar(&o.spec.TBF, "tbf", "weibull:0.7:150", "TBF model family:params (hours)")
	fs.StringVar(&o.spec.TTR, "ttr", "lognormal:0:1.2", "TTR model family:params (hours)")
	fs.IntVar(&o.spec.Nodes, "nodes", 32, "cluster size in model mode")
	fs.IntVar(&o.spec.Jobs, "jobs", 8, "jobs to submit")
	fs.IntVar(&o.spec.NodesPerJob, "nodes-per-job", 2, "nodes per job")
	fs.Float64Var(&o.spec.WorkHours, "work", 300, "work per job (hours)")
	fs.Float64Var(&o.spec.CheckpointInterval, "interval", 10, "checkpoint interval (hours, 0 = none)")
	fs.Float64Var(&o.spec.CheckpointCost, "cost", 0.1, "checkpoint cost (hours)")
	fs.Float64Var(&o.spec.RestartCost, "restart", 0.25, "restart cost (hours)")
	fs.StringVar(&o.spec.Scheduler, "scheduler", "first-fit", "first-fit or reliability-aware")
	fs.Int64Var(&o.spec.Seed, "seed", 1, "seed for model mode")
	fs.Float64Var(&o.spec.HorizonHours, "horizon", 1e6, "simulation horizon (hours)")
	fs.StringVar(&o.spec.Retry, "retry", "none", "retry policy: none, immediate, fixed:<delayH> or expo:<baseH>:<maxH>:<jitter>[:<factor>]")
	fs.IntVar(&o.spec.MaxRetries, "max-retries", 0, "retry budget per job (0 = unlimited)")
	fs.StringVar(&o.spec.Fence, "fence", "none", "fencing policy: none or window:<K>:<windowH>:<probationH>")
	fs.StringVar(&o.spec.Detect, "detect", "none", "detection model: none, fixed:<hours> or uniform:<loH>:<hiH>")
	fs.Var(&bursts, "burst", "inject a burst atH:firstNode:span:prob:repairH[:spreadH] (repeatable)")
	fs.StringVar(&o.spec.Inflate, "repair-inflate", "", "inflate repairs fromH:untilH:factor")
	fs.StringVar(&o.spec.Cascade, "cascade", "", "cascade failures prob:lagH:repairH")
	fs.Int64Var(&o.spec.InjectSeed, "inject-seed", 7, "seed for the fault injector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.spec.Bursts = bursts

	switch o.mode {
	case "model":
		if o.lenient {
			return fmt.Errorf("-lenient only applies to -mode replay")
		}
		// Validate everything up front so a bad combination fails before
		// the simulation starts, not hours into it.
		if err := o.spec.Validate(); err != nil {
			return err
		}
		res, err := sim.RunOne(o.spec)
		if err != nil {
			return err
		}
		fmt.Fprint(w, reportTable(res))
		return nil
	case "replay":
		return runReplay(&o, w)
	default:
		return fmt.Errorf("unknown mode %q", o.mode)
	}
}

// runReplay drives the job stream over a recorded failure trace. Replay
// nodes have no random source, so the resilience and injection machinery
// (which perturbs or reacts to the failure process) does not apply.
func runReplay(o *options, w io.Writer) error {
	if o.spec.Retry != "none" || o.spec.Fence != "none" || o.spec.Detect != "none" ||
		len(o.spec.Bursts) > 0 || o.spec.Inflate != "" || o.spec.Cascade != "" {
		return fmt.Errorf("resilience and injection flags need -mode model")
	}
	if o.data == "" {
		return fmt.Errorf("replay mode needs -data")
	}
	res, err := sim.RunReplay(o.spec, func() (*failures.Dataset, error) {
		f, err := os.Open(o.data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dataset, rowErrs, err := failures.ReadCSVWith(f, failures.ReadCSVOptions{SkipMalformed: o.lenient})
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", o.data, err)
		}
		if len(rowErrs) > 0 {
			fmt.Fprintf(os.Stderr, "simulate: skipped %d malformed rows in %s\n", len(rowErrs), o.data)
		}
		return dataset.BySystem(o.system), nil
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, reportTable(res))
	return nil
}

// reportTable renders one run's metrics; policy rows appear only when a
// policy was active, injection rows only when a scenario was armed.
func reportTable(res sim.RunResult) string {
	m := res.Metrics
	t := report.NewTable("Metric", "Value")
	t.AddRow("scheduler", res.SchedulerName)
	t.AddRow("jobs completed", fmt.Sprintf("%d", m.JobsCompleted))
	t.AddRow("jobs unfinished", fmt.Sprintf("%d", m.JobsUnfinished))
	t.AddRow("interruptions", fmt.Sprintf("%d", m.TotalInterruptions))
	t.AddRow("lost work (h)", fmt.Sprintf("%.1f", m.TotalLostWorkHours))
	t.AddRow("mean job efficiency", fmt.Sprintf("%.4f", m.MeanEfficiency))
	t.AddRow("mean node availability", fmt.Sprintf("%.4f", m.MeanAvailability))
	if res.HasResilience {
		t.AddRow("jobs abandoned", fmt.Sprintf("%d", m.JobsAbandoned))
		t.AddRow("total retries", fmt.Sprintf("%d", m.TotalRetries))
		t.AddRow("fenced node hours", fmt.Sprintf("%.1f", m.FencedNodeHours))
		t.AddRow("lost to detection (h)", fmt.Sprintf("%.1f", m.LostToDetectionHours))
	}
	if res.Injected {
		t.AddRow("injected failures", fmt.Sprintf("%d", m.InjectedFailures))
		t.AddRow("cascade failures", fmt.Sprintf("%d", m.CascadeFailures))
	}
	t.AddRow("goodput", fmt.Sprintf("%.4f", m.Goodput))
	t.AddRow("simulated time (h)", fmt.Sprintf("%.0f", res.SimulatedHours))
	return t.String()
}
