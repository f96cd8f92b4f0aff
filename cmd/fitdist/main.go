// Command fitdist fits the reliability distributions of the paper to a
// column of numbers — one value per line — and reports the ranked fits,
// goodness-of-fit statistics and tail quantiles. It is the standalone
// version of the paper's Section 3 methodology, usable on any positive
// sample (interarrival times, repair minutes, latencies, ...).
//
// Usage:
//
//	fitdist [-families weibull,lognormal,...] [-quantiles 0.5,0.9,0.99]
//	        [-workers N] [-bootstrap B] [-seed N] file
//	... | fitdist -
//
// Fitting runs through the concurrent analysis engine; -bootstrap sets the
// resample count behind the per-parameter confidence intervals of the best
// fit (negative disables them) and -seed makes them reproducible.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/report"
	"hpcfail/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fitdist:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("fitdist", flag.ContinueOnError)
	familiesFlag := fs.String("families", "", "comma-separated families (default: exponential,weibull,gamma,lognormal; add normal,pareto,hyperexp)")
	quantilesFlag := fs.String("quantiles", "0.5,0.9,0.99", "quantiles to report for the best fit")
	workers := fs.Int("workers", 0, "analysis engine worker-pool size (0 = GOMAXPROCS)")
	bootstrap := fs.Int("bootstrap", 200, "bootstrap resamples for the best fit's parameter CIs (negative disables)")
	seed := fs.Int64("seed", 1, "bootstrap base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one input file (or - for stdin)")
	}

	var reader io.Reader
	if fs.Arg(0) == "-" {
		reader = stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		reader = f
	}
	xs, err := readValues(reader)
	if err != nil {
		return err
	}

	families, err := parseFamilies(*familiesFlag)
	if err != nil {
		return err
	}
	quantiles, err := parseQuantiles(*quantilesFlag)
	if err != nil {
		return err
	}

	summary, err := stats.Summarize(xs)
	if err != nil {
		return fmt.Errorf("summarize: %w", err)
	}
	fmt.Fprintf(stdout, "n=%d mean=%.6g median=%.6g stddev=%.6g C2=%.4g min=%.6g max=%.6g\n\n",
		summary.N, summary.Mean, summary.Median, summary.StdDev, summary.C2, summary.Min, summary.Max)

	ctx := context.Background()
	eng := engine.New(engine.Options{Workers: *workers, BootstrapReps: *bootstrap, Seed: *seed})
	cmp, err := dist.FitAll(xs, families...)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	fmt.Fprint(stdout, report.FitComparison(cmp))

	best, err := cmp.Best()
	if err != nil {
		return err
	}
	// KS p-value for the best fit (upper bound: parameters were fitted).
	pval, err := stats.KolmogorovPValue(best.KS, summary.N)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nbest: %s (%s), KS p-value <= %.4g\n", best.Family, best.Dist.Params(), pval)
	if *bootstrap >= 0 {
		if _, cis, err := eng.FitCI(ctx, xs, best.Family); err == nil {
			fmt.Fprintf(stdout, "  %.0f%% bootstrap CI (B=%d): %s\n",
				eng.Level()*100, eng.BootstrapReps(), report.ParamCIs(cis))
		}
	}
	for _, q := range quantiles {
		v, err := best.Dist.Quantile(q)
		if err != nil {
			return fmt.Errorf("quantile %g: %w", q, err)
		}
		fmt.Fprintf(stdout, "  p%g = %.6g\n", q*100, v)
	}
	if hz, ok := best.Dist.(dist.Hazarder); ok {
		lo := hz.Hazard(summary.Median / 2)
		hi := hz.Hazard(summary.Median * 2)
		switch {
		case lo > hi*1.01:
			fmt.Fprintln(stdout, "  hazard rate: decreasing")
		case hi > lo*1.01:
			fmt.Fprintln(stdout, "  hazard rate: increasing")
		default:
			fmt.Fprintln(stdout, "  hazard rate: roughly constant")
		}
	}
	return nil
}

// readValues parses one float per line, skipping blanks and # comments.
func readValues(r io.Reader) ([]float64, error) {
	var xs []float64
	scanner := bufio.NewScanner(r)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		xs = append(xs, v)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("no values in input")
	}
	return xs, nil
}

func parseFamilies(s string) ([]dist.Family, error) {
	if s == "" {
		return dist.StandardFamilies(), nil
	}
	byName := map[string]dist.Family{
		"exponential": dist.FamilyExponential,
		"weibull":     dist.FamilyWeibull,
		"gamma":       dist.FamilyGamma,
		"lognormal":   dist.FamilyLogNormal,
		"normal":      dist.FamilyNormal,
		"pareto":      dist.FamilyPareto,
		"hyperexp":    dist.FamilyHyperExp,
	}
	var out []dist.Family
	for _, part := range strings.Split(s, ",") {
		f, ok := byName[strings.TrimSpace(part)]
		if !ok {
			return nil, fmt.Errorf("unknown family %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseQuantiles(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("parse quantile %q: %w", part, err)
		}
		if q <= 0 || q >= 1 {
			return nil, fmt.Errorf("quantile %g outside (0, 1)", q)
		}
		out = append(out, q)
	}
	return out, nil
}
