package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hpcfail/internal/sim"
)

// Grid is the cartesian policy grid a sweep enumerates. Each axis is a
// list of sim spec tokens; the product of all five axes is the grid. A
// zero-value axis defaults to a single neutral token, so a spec only
// names the axes it varies.
type Grid struct {
	// Scenarios are named injection scenarios (see ScenarioNames).
	Scenarios []string
	// Intervals are checkpoint intervals in hours (numeric tokens).
	Intervals []string
	// Retries, Fences and Detects are policy tokens in the cmd/simulate
	// flag syntax, e.g. "expo:0.5:24:0.5" or "window:2:72:24".
	Retries, Fences, Detects []string
}

// axis defaults applied by ParseSweepSpec and Grid.normalize.
var axisDefaults = map[string][]string{
	"scenario": {"calm"},
	"interval": {"10"},
	"retry":    {"none"},
	"fence":    {"none"},
	"detect":   {"none"},
}

// ParseSweepSpec parses a whitespace-separated list of axis definitions
// into a grid:
//
//	scenario=calm,bursts interval=2..32/4L retry=none,expo:0.5:24:0.5
//
// Each definition is name=value[,value...]. The interval axis also
// accepts range expressions: lo..hi/n expands to n linearly spaced
// points, lo..hi/nL to n log-spaced points (lo > 0). Every token is
// validated eagerly — policy tokens through the shared sim parsers,
// scenario names against the known set — so a typo fails at parse time,
// not thousands of simulations into a sweep. Axes missing from the spec
// default to a single neutral value; an empty spec is the all-defaults
// 1-point grid.
func ParseSweepSpec(spec string) (*Grid, error) {
	g := &Grid{}
	seen := map[string]bool{}
	for _, field := range strings.Fields(spec) {
		name, list, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("sweep: axis %q is not name=values", field)
		}
		if _, known := axisDefaults[name]; !known {
			return nil, fmt.Errorf("sweep: unknown axis %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("sweep: axis %q defined twice", name)
		}
		seen[name] = true
		values, err := parseAxisValues(name, list)
		if err != nil {
			return nil, err
		}
		switch name {
		case "scenario":
			g.Scenarios = values
		case "interval":
			g.Intervals = values
		case "retry":
			g.Retries = values
		case "fence":
			g.Fences = values
		case "detect":
			g.Detects = values
		}
	}
	g.normalize()
	return g, nil
}

// parseAxisValues splits and validates one axis's comma-separated value
// list, expanding range expressions on the interval axis.
func parseAxisValues(name, list string) ([]string, error) {
	if list == "" {
		return nil, fmt.Errorf("sweep: axis %q has no values", name)
	}
	var out []string
	for _, tok := range strings.Split(list, ",") {
		if tok == "" {
			return nil, fmt.Errorf("sweep: axis %q has an empty value", name)
		}
		if name == "interval" && strings.Contains(tok, "..") {
			expanded, err := expandRange(tok)
			if err != nil {
				return nil, fmt.Errorf("sweep: axis %q: %w", name, err)
			}
			out = append(out, expanded...)
			continue
		}
		if err := validateAxisToken(name, tok); err != nil {
			return nil, fmt.Errorf("sweep: axis %q: %w", name, err)
		}
		out = append(out, tok)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: axis %q has no values", name)
	}
	return out, nil
}

// validateAxisToken checks one token against its axis's syntax.
func validateAxisToken(name, tok string) error {
	switch name {
	case "scenario":
		for _, known := range ScenarioNames() {
			if tok == known {
				return nil
			}
		}
		return fmt.Errorf("unknown scenario %q (have %s)", tok, strings.Join(ScenarioNames(), ", "))
	case "interval":
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return fmt.Errorf("parse interval %q: %w", tok, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("interval %q outside [0, inf)", tok)
		}
		return nil
	case "retry":
		_, err := sim.ParseRetrySpec(tok, 0)
		return err
	case "fence":
		_, err := sim.ParseFenceSpec(tok)
		return err
	case "detect":
		_, err := sim.ParseDetectSpec(tok)
		return err
	default:
		return fmt.Errorf("unknown axis %q", name)
	}
}

// expandRange expands lo..hi/n (linear) or lo..hi/nL (log) into n
// inclusive numeric tokens.
func expandRange(tok string) ([]string, error) {
	bounds, count, ok := strings.Cut(tok, "/")
	if !ok {
		return nil, fmt.Errorf("range %q needs lo..hi/n", tok)
	}
	loStr, hiStr, ok := strings.Cut(bounds, "..")
	if !ok {
		return nil, fmt.Errorf("range %q needs lo..hi/n", tok)
	}
	logSpaced := false
	if strings.HasSuffix(count, "L") {
		logSpaced = true
		count = strings.TrimSuffix(count, "L")
	}
	n, err := strconv.Atoi(count)
	if err != nil {
		return nil, fmt.Errorf("range %q: point count: %w", tok, err)
	}
	if n < 2 || n > 10000 {
		return nil, fmt.Errorf("range %q: point count %d outside [2, 10000]", tok, n)
	}
	lo, err := strconv.ParseFloat(loStr, 64)
	if err != nil {
		return nil, fmt.Errorf("range %q: %w", tok, err)
	}
	hi, err := strconv.ParseFloat(hiStr, 64)
	if err != nil {
		return nil, fmt.Errorf("range %q: %w", tok, err)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("range %q: non-finite bound", tok)
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("range %q: need 0 <= lo < hi", tok)
	}
	if logSpaced && lo <= 0 {
		return nil, fmt.Errorf("range %q: log spacing needs lo > 0", tok)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		var v float64
		if logSpaced {
			v = math.Exp(math.Log(lo) + t*(math.Log(hi)-math.Log(lo)))
		} else {
			v = lo + t*(hi-lo)
		}
		out[i] = formatNum(v)
	}
	return out, nil
}

// normalize fills empty axes with their defaults.
func (g *Grid) normalize() {
	if len(g.Scenarios) == 0 {
		g.Scenarios = append([]string(nil), axisDefaults["scenario"]...)
	}
	if len(g.Intervals) == 0 {
		g.Intervals = append([]string(nil), axisDefaults["interval"]...)
	}
	if len(g.Retries) == 0 {
		g.Retries = append([]string(nil), axisDefaults["retry"]...)
	}
	if len(g.Fences) == 0 {
		g.Fences = append([]string(nil), axisDefaults["fence"]...)
	}
	if len(g.Detects) == 0 {
		g.Detects = append([]string(nil), axisDefaults["detect"]...)
	}
}

// Validate re-checks every token (for grids built in code rather than
// parsed) and bounds the product size.
func (g *Grid) Validate() error {
	g.normalize()
	axes := []struct {
		name   string
		values []string
	}{
		{"scenario", g.Scenarios},
		{"interval", g.Intervals},
		{"retry", g.Retries},
		{"fence", g.Fences},
		{"detect", g.Detects},
	}
	size := 1
	for _, ax := range axes {
		for _, tok := range ax.values {
			if err := validateAxisToken(ax.name, tok); err != nil {
				return fmt.Errorf("sweep: axis %q: %w", ax.name, err)
			}
		}
		size *= len(ax.values)
		if size > 1_000_000 {
			return fmt.Errorf("sweep: grid exceeds 1e6 points")
		}
	}
	return nil
}

// Size returns the number of grid points.
func (g *Grid) Size() int {
	return len(g.Scenarios) * len(g.Intervals) * len(g.Retries) * len(g.Fences) * len(g.Detects)
}

// String renders the grid back into the canonical spec syntax (axes in
// fixed order, ranges already expanded).
func (g *Grid) String() string {
	var b strings.Builder
	writeAxis := func(name string, values []string) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strings.Join(values, ","))
	}
	writeAxis("scenario", g.Scenarios)
	writeAxis("interval", g.Intervals)
	writeAxis("retry", g.Retries)
	writeAxis("fence", g.Fences)
	writeAxis("detect", g.Detects)
	return b.String()
}

// Point is one grid coordinate: an index into the enumeration order plus
// the axis tokens it resolves to.
type Point struct {
	// Index is the point's position in enumeration order.
	Index int
	// Scenario, Interval, Retry, Fence, Detect are the axis tokens.
	Scenario, Interval, Retry, Fence, Detect string
}

// Points enumerates the grid in a fixed deterministic order: scenario
// outermost, then interval, retry, fence, detect.
func (g *Grid) Points() []Point {
	pts := make([]Point, 0, g.Size())
	for _, sc := range g.Scenarios {
		for _, iv := range g.Intervals {
			for _, re := range g.Retries {
				for _, fe := range g.Fences {
					for _, de := range g.Detects {
						pts = append(pts, Point{
							Index:    len(pts),
							Scenario: sc, Interval: iv, Retry: re, Fence: fe, Detect: de,
						})
					}
				}
			}
		}
	}
	return pts
}

// Label renders the point's coordinates compactly for reports.
func (p Point) Label() string {
	return fmt.Sprintf("%s iv=%s retry=%s fence=%s detect=%s",
		p.Scenario, p.Interval, p.Retry, p.Fence, p.Detect)
}
