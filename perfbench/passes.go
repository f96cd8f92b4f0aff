package main

import (
	"net/http"
	"time"

	"hpcfail/internal/engine"
	"hpcfail/internal/failures"
	"hpcfail/internal/streamstats"
)

// hooks are seams where the tests doctor what the program returned, to
// prove that the checks catch it. Runs leave them nil.
type hooks struct {
	// source wraps trace-scan's record source.
	source func(engine.BatchSource) engine.BatchSource
	// digest rewrites a pass's result digest; pass is its index, -1 for
	// the one-worker pass.
	digest func(pass int, d string) string
	// handler wraps serve-mixed's server handler.
	handler func(http.Handler) http.Handler
}

func (h hooks) doctor(pass int, d string) string {
	if h.digest == nil {
		return d
	}
	return h.digest(pass, d)
}

// passes runs fn until the run's time is up, and at least minPasses
// times. On the traced run every other pass is traced, starting with an
// untraced one, so the two kinds see the same conditions and their
// difference is the tracing overhead.
func passes(cfg *config, fn func(i int, tr *tracer) error) error {
	resetPeakRSS()
	start := time.Now()
	for i := 0; i < cfg.minPasses || time.Since(start) < cfg.seconds; i++ {
		if err := fn(i, cfg.tracerFor(i)); err != nil {
			return err
		}
	}
	return nil
}

// tracerFor is the tracer of pass i: nil unless the run is traced and
// the pass is an odd one.
func (cfg *config) tracerFor(i int) *tracer {
	if i%2 == 1 {
		return cfg.tr
	}
	return nil
}

// split returns the per-pass values of the untraced and of the traced
// passes.
func split[T any](cfg *config, ps []T) (plain, traced []T) {
	for i, p := range ps {
		if cfg.tracerFor(i) != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	return plain, traced
}

// eoiSource wraps the decoder AnalyzeStream reads. It notes when the
// input ran out, which ends the pass's ingest phase, and on a traced
// pass records a span around every ScanBatch call.
type eoiSource struct {
	engine.BatchSource
	tr     *tracer
	parent int
	eoi    time.Time
}

func (s *eoiSource) ScanBatch() ([]failures.Record, error) {
	sp := s.tr.begin("tracefmt.ScanBatch", s.parent)
	b, err := s.BatchSource.ScanBatch()
	s.tr.end(sp)
	if b == nil {
		s.eoi = time.Now()
	}
	return b, err
}

// streamTimes derives the per-layer split of one traced AnalyzeStream
// span: time blocked in ScanBatch (decode wait), time between ScanBatch
// returns (the fold, streamstats included), and time from the end of
// input to the return (the fits).
func streamTimes(tr *tracer, analyze int) (decodeWait, fold, fit time.Duration) {
	var lastEnd int64
	for _, c := range tr.children(analyze) {
		decodeWait += c.dur()
		lastEnd = max(lastEnd, c.End)
	}
	fit = time.Duration(tr.get(analyze).End - lastEnd)
	return decodeWait, tr.selfTime(analyze) - fit, fit
}

// childDur sums the durations of id's children named name.
func childDur(tr *tracer, id int, name string) time.Duration {
	var d time.Duration
	for _, c := range tr.children(id) {
		if c.Name == name {
			d += c.dur()
		}
	}
	return d
}

// commonLayers fills the per-layer metrics every workload reads the
// same way: the engine's memo counters and CPU use, and the runtime's
// allocation and GC deltas over the untraced passes.
func commonLayers(m map[string]float64, eng *engine.Engine, ps passSummary) {
	hits, misses := eng.Stats()
	m["engine.memo_hits"] = float64(hits)
	m["engine.memo_misses"] = float64(misses)
	if hits+misses > 0 {
		m["engine.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["engine.collisions"] = float64(eng.Collisions())
	m["engine.cpu_util"] = ps.cpuUtil
	m["runtime.alloc_bytes_per_record"] = ps.allocPerRecord
	m["runtime.gc_cycles"] = ps.gcCycles
	m["runtime.gc_pause_s"] = ps.gcPauseSecs
}

// sampleLimit caps each sample the streamstats probe adds.
const sampleLimit = 1 << 20

// failureSamples extracts the two samples the engine folds from a
// trace: per-system interarrival seconds (positive deltas only) and
// repair minutes, up to sampleLimit values each. each calls yield on
// every record in order until yield returns false.
func failureSamples(each func(yield func(*failures.Record) bool)) (inter, repair []float64) {
	last := map[int]time.Time{}
	each(func(r *failures.Record) bool {
		if m := r.Downtime().Minutes(); m > 0 && len(repair) < sampleLimit {
			repair = append(repair, m)
		}
		if t, ok := last[r.System]; ok {
			if d := r.Start.Sub(t).Seconds(); d > 0 && len(inter) < sampleLimit {
				inter = append(inter, d)
			}
		}
		last[r.System] = r.Start
		return len(inter) < sampleLimit || len(repair) < sampleLimit
	})
	return inter, repair
}

// addProbe times streamstats.Accumulator.Add over the workload's own
// samples, each into a fresh default accumulator, and returns the
// median over three repetitions of the mean nanoseconds per Add.
func addProbe(samples ...[]float64) (float64, error) {
	var perAdd []float64
	for rep := 0; rep < 3; rep++ {
		var total time.Duration
		n := 0
		for _, xs := range samples {
			acc, err := streamstats.NewAccumulator(streamstats.Config{Seed: 1})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for _, x := range xs {
				acc.Add(x)
			}
			total += time.Since(t0)
			n += len(xs)
		}
		perAdd = append(perAdd, float64(total.Nanoseconds())/float64(max(n, 1)))
	}
	return median(perAdd), nil
}

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// walls lists the passes' wall times in milliseconds.
func walls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = ms(p.wall)
	}
	return out
}
