package streamstats

import (
	"fmt"
	"math"

	"hpcfail/internal/stats"
)

// Accumulator is the one-pass counterpart of stats.Summarize plus a
// fitting subsample: Welford moments for mean/variance/C²/extrema, a
// quantile sketch for the median and percentiles, and a seeded reservoir
// to feed distribution fitters. Construct with NewAccumulator.
type Accumulator struct {
	moments Moments
	sketch  *QuantileSketch
	res     *Reservoir
}

// Config sizes an Accumulator. The zero value uses
// DefaultSketchEpsilon, DefaultReservoirSize and seed 0.
type Config struct {
	// SketchEpsilon is the quantile sketch's relative accuracy; <= 0 uses
	// DefaultSketchEpsilon.
	SketchEpsilon float64
	// ReservoirSize caps the fitting subsample; <= 0 uses
	// DefaultReservoirSize.
	ReservoirSize int
	// Seed drives the reservoir's replacement decisions.
	Seed int64
}

// NewAccumulator builds an accumulator for the given configuration.
func NewAccumulator(cfg Config) (*Accumulator, error) {
	sketch, err := NewQuantileSketch(cfg.SketchEpsilon)
	if err != nil {
		return nil, err
	}
	return &Accumulator{
		sketch: sketch,
		res:    NewReservoir(cfg.ReservoirSize, cfg.Seed),
	}, nil
}

// Add folds one observation into all three structures: it keys x for
// the sketch and applies the key.
func (a *Accumulator) Add(x float64) { a.AddKeyed(a.Key(x)) }

// Key classifies and buckets x for the accumulator's sketch. The key can
// be applied to any accumulator with AddKeyed; one whose sketch epsilon
// matches uses it as is.
func (a *Accumulator) Key(x float64) Key { return a.sketch.Key(x) }

// AddKeyed folds the observation k was computed for, exactly as Add of
// that value would. A key from an accumulator with a different sketch
// epsilon is recomputed for this one's sketch.
func (a *Accumulator) AddKeyed(k Key) {
	a.moments.Add(k.x)
	a.sketch.addKey(k)
	a.res.Add(k.x)
}

// N returns the observation count.
func (a *Accumulator) N() int { return a.moments.N() }

// Moments exposes the running moments.
func (a *Accumulator) Moments() *Moments { return &a.moments }

// Quantile returns the sketched q-th quantile.
func (a *Accumulator) Quantile(q float64) (float64, error) { return a.sketch.Quantile(q) }

// Sample returns the reservoir subsample for fitting.
func (a *Accumulator) Sample() []float64 { return a.res.Sample() }

// SampleView is Sample without the copy: the slice is the reservoir's
// own storage, which callers must not modify, valid until the next Add.
func (a *Accumulator) SampleView() []float64 { return a.res.sample }

// Summary assembles a stats.Summary from the streaming state: moments are
// exact (up to floating-point reassociation), the median comes from the
// sketch within its relative-accuracy guarantee. A sample that contained
// NaN yields NaN fields, mirroring stats.Summarize.
func (a *Accumulator) Summary() (stats.Summary, error) {
	if a.N() == 0 {
		return stats.Summary{}, stats.ErrEmpty
	}
	med, err := a.sketch.Median()
	if err != nil && err != ErrNaNSketch {
		return stats.Summary{}, fmt.Errorf("streamstats: summary median: %w", err)
	}
	if err == ErrNaNSketch {
		med = math.NaN()
	}
	return stats.Summary{
		N:        a.N(),
		Mean:     a.moments.Mean(),
		Median:   med,
		StdDev:   a.moments.StdDev(),
		Variance: a.moments.Variance(),
		C2:       a.moments.C2(),
		Min:      a.moments.Min(),
		Max:      a.moments.Max(),
	}, nil
}
