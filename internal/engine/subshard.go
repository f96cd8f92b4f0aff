package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"hpcfail/internal/dist"
	"hpcfail/internal/failures"
	"hpcfail/internal/par"
	"hpcfail/internal/stats"
	"hpcfail/internal/streamstats"
)

// Sub-shard parallelism.
//
// Shard sizes in the Schroeder & Gibson trace are so skewed (one big
// system holds a large share of the records) that a whole-shard unit of
// work would let the big shard alone set the critical path however many
// workers were free. AnalyzeFleet, AnalyzeStream and Incremental.Result
// therefore share one scheduler below the shard.
//
// analyzeJobs decomposes each shard into independently schedulable tasks —
// prepare (slice + summarize + hash), one task per distinct sample that
// builds its dist.Sample and runs every point fit, one per bootstrap CI
// plan, one per counter-seeded rep block —
// and runs each phase on the engine's workers with par.Each, which starts
// indexes in ascending order over the pre-sorted tasks, so the largest
// shard dispatches first. Cancellation stops the phase from starting
// further tasks; callers check ctx.Err() between phases. Determinism is preserved by construction: every task's output
// lands in a position-indexed slot, every bootstrap rep's draws depend
// only on (task seed, rep index) via dist.CIPlan, and the merge walks the
// enumeration order. The workers only decide *when* a value is computed,
// never *what* it is.

// sampleState is one shard sample (interarrival or repair) after the
// prepare phase: its size, summary, values and their stats.HashSample,
// then the fit table entry that holds its fits, or the reason it is not
// studied. The values are the reservoir's own storage on the streaming
// path and the shard's extracted slice on the dataset path; the
// dist.Sample is built later, by the entry's fit task.
type sampleState struct {
	n       int
	summary stats.Summary
	xs      []float64
	hash    uint64
	ent     *tableEntry
	// skip marks a sample below the spec's minimum size — not studied,
	// not an error.
	skip bool
	err  error
}

// studied reports whether the sample gets fitted.
func (st *sampleState) studied() bool { return !st.skip && st.err == nil }

// shardJob carries one shard through the phases. Exactly one of the
// dataset path (sliced from d by prepare) and the streaming path (acc)
// applies. pos is the shard's slot in the merged result.
type shardJob struct {
	pos  int
	key  ShardKey
	size int
	acc  *shardAccum

	records int
	inter   sampleState
	repair  sampleState
	res     ShardResult
}

// orderJobs returns the jobs in dispatch order: largest first (stable on
// position for equal sizes), so the skewed big shard starts immediately
// instead of serializing behind the tail. The enumOrder test knob keeps
// enumeration order, proving ordering is scheduling-only.
func (e *Engine) orderJobs(jobs []*shardJob) []*shardJob {
	ord := make([]*shardJob, len(jobs))
	copy(ord, jobs)
	if e.enumOrder {
		return ord
	}
	sort.SliceStable(ord, func(a, b int) bool { return ord[a].size > ord[b].size })
	return ord
}

// prepareJob fills the job's sample states: slice + extract on the
// dataset path, accumulator summary + reservoir on the streaming path.
func (e *Engine) prepareJob(j *shardJob, d *failures.Dataset, spec ShardSpec) {
	if j.acc != nil {
		j.records = j.acc.records
		e.prepStream(&j.inter, j.acc.inter, spec)
		e.prepStream(&j.repair, j.acc.repair, spec)
		return
	}
	sub := slice(d, j.key)
	j.records = sub.Len()
	e.prepMem(&j.inter, sub.PositiveInterarrivals(), spec)
	e.prepMem(&j.repair, sub.RepairTimes(), spec)
}

func (e *Engine) prepMem(st *sampleState, xs []float64, spec ShardSpec) {
	st.n = len(xs)
	if st.n < spec.minN() {
		st.skip = true
		return
	}
	st.summary, st.err = stats.Summarize(xs)
	if st.err != nil {
		return
	}
	st.xs, st.hash = xs, stats.HashSample(xs)
}

func (e *Engine) prepStream(st *sampleState, acc *streamstats.Accumulator, spec ShardSpec) {
	st.n = acc.N()
	if st.n < spec.minN() {
		st.skip = true
		return
	}
	st.summary, st.err = acc.Summary()
	if st.err != nil {
		return
	}
	// The fit task's NewSamplePrehashed copies xs, so the reservoir's own
	// storage will do: nothing appends to acc while the call runs.
	xs := acc.SampleView()
	st.xs, st.hash = xs, stats.HashSample(xs)
}

// ciSpans partitions reps into contiguous rep blocks sized for the pool:
// small enough that one shard's bootstrap spreads across idle workers
// (about four blocks per worker), large enough that per-block reseed and
// solver setup stay negligible.
func ciSpans(reps, workers int) [][2]int {
	if workers < 1 {
		workers = 1
	}
	size := (reps + 4*workers - 1) / (4 * workers)
	if size < 8 {
		size = 8
	}
	var spans [][2]int
	for lo := 0; lo < reps; lo += size {
		hi := lo + size
		if hi > reps {
			hi = reps
		}
		spans = append(spans, [2]int{lo, hi})
	}
	return spans
}

// ciTarget is one (sample, family) confidence interval of a call: its
// plan and rep blocks, then the merged intervals or the error.
type ciTarget struct {
	s      *dist.Sample
	f      dist.Family
	plan   *dist.CIPlan
	spans  [][2]int
	blocks []dist.CIBlock
	cis    []dist.ParamCI
	err    error
}

// analyzeJobs runs the sub-shard pipeline over the jobs: prepare, one fit
// task per distinct sample, CI plans, counter-seeded rep blocks, then a
// sequential merge and assembly in enumeration order. It fills each job's
// res field. All fit state lives in the call's fitTable and is dropped
// when the call returns.
//
// A sample's dist.Sample (its values, their logs and the sorted view,
// several times the raw values) lives only inside its fit task unless
// bootstrap intervals need it in phase 3, so with intervals off at most
// e.workers samples are alive at once however many shards the call has.
func (e *Engine) analyzeJobs(ctx context.Context, jobs []*shardJob, d *failures.Dataset, spec ShardSpec) error {
	ord := e.orderJobs(jobs)

	// Phase 1: prepare (slice, summarize, hash), largest shard first.
	par.Each(ctx, len(ord), e.workers, func(i int) { e.prepareJob(ord[i], d, spec) })
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: point fits. Shards holding the same sample share one table
	// entry, so each distinct sample is built and fitted once, by one
	// task that fills every family's slot.
	fams, ciFams := dist.StandardFamilies(), spec.ciFamilies()
	ciAt := make([]int, len(ciFams)) // fams index of each CI family, -1 if unfitted
	for k, f := range ciFams {
		ciAt[k] = slices.Index(fams, f)
	}
	tab := make(fitTable)
	var ents []*tableEntry
	defer func() {
		for _, ent := range ents {
			e.dropSample(ent)
		}
	}()
	for _, j := range ord {
		for _, st := range [2]*sampleState{&j.inter, &j.repair} {
			if !st.studied() {
				continue
			}
			ent, fresh := e.intern(tab, st.xs, st.hash)
			st.ent, st.xs = ent, nil
			if !fresh {
				e.hits.Add(uint64(len(fams)))
				continue
			}
			e.misses.Add(uint64(len(fams)))
			ent.fits = make([]dist.FitResult, len(fams))
			ent.cis = make([]*ciTarget, len(ciFams))
			ents = append(ents, ent)
		}
	}
	par.Each(ctx, len(ents), e.workers, func(i int) { e.fitEntry(ents[i], fams, ciAt) })
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 3: bootstrap intervals for every requested family that
	// fitted, one target per (sample, family), fanned out in two
	// wavefronts (plan creation, rep blocks) and merged sequentially.
	if e.reps >= 0 {
		var targets []*ciTarget
		for _, j := range ord {
			for _, st := range [2]*sampleState{&j.inter, &j.repair} {
				if !st.studied() {
					continue
				}
				ent := st.ent
				for k, fk := range ciAt {
					if !ent.ciReady(fk) {
						continue
					}
					if ent.cis[k] != nil {
						e.hits.Add(1)
						continue
					}
					e.misses.Add(1)
					ent.cis[k] = &ciTarget{s: ent.s, f: ciFams[k]}
					targets = append(targets, ent.cis[k])
				}
			}
		}
		par.Each(ctx, len(targets), e.workers, func(i int) {
			t := targets[i]
			t.plan, t.err = dist.NewCIPlan(t.f, t.s, e.reps, e.level, e.taskSeed(t.s.Hash(), t.f))
		})
		if err := ctx.Err(); err != nil {
			return err
		}

		type blockTask struct {
			t *ciTarget
			b int
		}
		var btasks []blockTask
		for _, t := range targets {
			if t.err != nil {
				continue
			}
			t.spans = ciSpans(t.plan.Reps(), e.workers)
			t.blocks = make([]dist.CIBlock, len(t.spans))
			for b := range t.spans {
				btasks = append(btasks, blockTask{t: t, b: b})
			}
		}
		par.Each(ctx, len(btasks), e.workers, func(i int) {
			bt := btasks[i]
			sp := bt.t.spans[bt.b]
			bt.t.blocks[bt.b] = bt.t.plan.RunBlock(sp[0], sp[1])
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, t := range targets {
			if t.err == nil {
				_, t.cis, t.err = t.plan.Merge(t.blocks)
			}
		}
	}

	// Phase 4: assemble per-shard results sequentially in enumeration
	// order from the table; this phase only shapes output (an
	// interarrival error suppresses the repair study).
	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.assembleJob(j, spec)
	}
	return ctx.Err()
}

// fitEntry is one distinct sample's phase-2 task: it builds the
// sample's dist.Sample, fits every family into its slot and records the
// ECDF error assembleStudy reports. It keeps the Sample on the entry only
// when phase 3 will draw an interval from it (ciAt maps each CI family
// to its fams index); otherwise the Sample dies with the task.
func (e *Engine) fitEntry(ent *tableEntry, fams []dist.Family, ciAt []int) {
	s := dist.NewSamplePrehashed(ent.xs, ent.hash)
	ent.xs = nil
	e.holdSample()
	for k, f := range fams {
		ent.fits[k] = dist.FitOne(f, s)
	}
	_, ent.ecdfErr = s.ECDF()
	if e.reps >= 0 && slices.ContainsFunc(ciAt, ent.ciReady) {
		ent.s = s
		return
	}
	e.liveSamples.Add(-1)
}

func (e *Engine) assembleJob(j *shardJob, spec ShardSpec) {
	j.res = ShardResult{Key: j.key, Records: j.records}
	var err error
	j.res.Interarrival, err = e.assembleStudy(&j.inter, spec)
	if err != nil {
		j.res.Err = fmt.Errorf("shard %s interarrival: %w", j.key, err)
		return
	}
	j.res.Repair, err = e.assembleStudy(&j.repair, spec)
	if err != nil {
		j.res.Err = fmt.Errorf("shard %s repair: %w", j.key, err)
	}
}

// assembleStudy shapes one prepared sample's study: summary, ranked
// comparison, and bootstrap intervals for the requested families, all
// read from the sample's table entry. A sample below the spec's minimum
// size yields (nil, nil) — too small to study, not an error.
func (e *Engine) assembleStudy(st *sampleState, spec ShardSpec) (*Study, error) {
	if st.skip {
		return nil, nil
	}
	if st.err != nil {
		return nil, st.err
	}
	ent := st.ent
	if ent.ecdfErr != nil {
		return nil, fmt.Errorf("engine fit all: %w", ent.ecdfErr)
	}
	fits := dist.Rank(append([]dist.FitResult(nil), ent.fits...))
	study := &Study{N: st.n, Summary: st.summary, Fits: fits}
	if e.reps < 0 {
		return study, nil
	}
	study.CIs = make(map[dist.Family][]dist.ParamCI)
	for k, f := range spec.ciFamilies() {
		if t := ent.cis[k]; t != nil && t.err == nil {
			study.CIs[f] = t.cis
		}
	}
	return study, nil
}
