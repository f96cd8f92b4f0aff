package lanl

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/par"
	"hpcfail/internal/randx"
)

// Config controls synthetic trace generation.
type Config struct {
	// Seed drives all randomness; the same seed always produces the same
	// dataset. Seed 1 is the reference dataset of EXPERIMENTS.md.
	Seed int64
	// Systems optionally restricts generation to a subset of system IDs;
	// empty means every system of the catalog. An ID the catalog does not
	// hold is an error.
	Systems []int
	// Catalog optionally replaces the Table 1 catalog — e.g. with
	// ExtrapolatedCatalog() for projected 10k–100k-node machines. Empty
	// means Catalog(), whose seed-1 output is the frozen oracle of
	// EXPERIMENTS.md; replacement catalogs get their own randomness
	// stream layout (one child source per catalog entry, in order), so
	// they cannot perturb the default catalog's traces. Generation first
	// checks the catalog with ValidateCatalog; in particular every
	// production window must start at a UTC midnight.
	Catalog []System
	// RateScale scales every system's failure rate; 0 means 1.0. It exists
	// for workload-size sweeps in benchmarks.
	RateScale float64
	// Workers bounds how many systems generate concurrently; 0 or negative
	// means runtime.GOMAXPROCS(0). The output is identical at every worker
	// count: each system draws from its own pre-split child source, and the
	// deterministic merge reassembles the blocks in catalog order.
	Workers int
	// DisableCorrelatedBatches turns off the early type G simultaneous
	// failures (ablation: removes the Figure 6c zero-interarrival mass).
	DisableCorrelatedBatches bool
	// DisableTimeModulation flattens the hour-of-day, day-of-week and
	// month-to-month intensity cycles, leaving only the lifecycle curve
	// (ablation: removes the Figure 5 structure and most of the
	// system-wide over-dispersion behind Figure 6d).
	DisableTimeModulation bool
}

// Generator produces synthetic LANL-like failure traces. Construct with
// NewGenerator. The generator is bit-compatible with the frozen reference
// path in ref.go — the compiled draw tables, cached profile curves, era
// threshold and parallel merge all reproduce the reference arithmetic and
// randomness stream exactly — while running several times faster and
// allocating nothing per record in the draw path.
type Generator struct {
	cfg  Config
	hw   map[failures.HWType]*compiledHW
	life lifecycleMemo
}

// NewGenerator returns a Generator for the given configuration. The
// per-hardware-type calibration maps are compiled once, process-wide,
// into flat draw tables (see compile.go).
func NewGenerator(cfg Config) *Generator {
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	return &Generator{cfg: cfg, hw: compiledTables()}
}

// workers resolves the configured worker count against n pending tasks.
func (g *Generator) workers(n int) int {
	w := g.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// systemTask pairs a catalog system with its pre-split randomness source.
type systemTask struct {
	sys System
	src *randx.Source
}

// systemTasks validates the active catalog and the Systems subset, then
// splits the root source across the catalog and returns the selected
// systems in catalog order. Splitting happens here, on one goroutine, so
// the child sources are identical no matter how many workers later
// consume them.
func (g *Generator) systemTasks() ([]systemTask, error) {
	catalog := g.cfg.Catalog
	if len(catalog) == 0 {
		catalog = Catalog()
	}
	if err := ValidateCatalog(catalog); err != nil {
		return nil, err
	}
	want := make(map[int]bool, len(g.cfg.Systems))
	for _, id := range g.cfg.Systems {
		if !slices.ContainsFunc(catalog, func(s System) bool { return s.ID == id }) {
			return nil, fmt.Errorf("lanl: no system with ID %d in the catalog", id)
		}
		want[id] = true
	}
	root := randx.NewSource(g.cfg.Seed)
	var tasks []systemTask
	for _, sys := range catalog {
		// Every system consumes one child source whether selected or not,
		// so a subset run reproduces the full run's records exactly.
		src := root.Split()
		if len(want) > 0 && !want[sys.ID] {
			continue
		}
		tasks = append(tasks, systemTask{sys: sys, src: src})
	}
	return tasks, nil
}

// systemBlock is one system's job in the generator pool: the task going
// in, its time-sorted block or its error coming out.
type systemBlock struct {
	task  systemTask
	block recordBlock
	err   error
}

// recordBlock is one system's records in start order, held as compact
// records: the system ID, hardware type and label tables they share
// are stored once, in the block. Generate and Stream both build full
// failures.Records from it only at their output.
type recordBlock struct {
	system int
	hw     failures.HWType
	ct     *compiledHW
	recs   []compactRecord
}

// compactRecord is one generated failure as a recordBlock holds it:
// 24 bytes with no pointers, so the garbage collector never scans a
// block and moving a record is a plain copy. ValidateCatalog keeps
// every start and end within the int64 nanosecond range.
type compactRecord struct {
	start, end int64 // epoch nanoseconds
	node       int32
	workload   uint8
	cause      uint8  // index into compiledHW.causes
	detail     uint16 // index + 1 into the cause's detail labels; 0: no detail
}

// compactStart is a compact record's start instant, the key its block
// is sorted on.
func compactStart(c *compactRecord) time.Time { return time.Unix(0, c.start) }

// fill sets *r to the full record of c, one of b's records. Times come
// back in UTC, the location of every generated instant.
func (b *recordBlock) fill(r *failures.Record, c *compactRecord) {
	r.System = b.system
	r.Node = int(c.node)
	r.HW = b.hw
	r.Workload = failures.Workload(c.workload)
	r.Cause = b.ct.causes[c.cause]
	r.Detail = ""
	if c.detail > 0 {
		r.Detail = b.ct.detail[c.cause].labels[c.detail-1]
	}
	r.Start = time.Unix(0, c.start).UTC()
	r.End = time.Unix(0, c.end).UTC()
}

// records returns the block's full records, in start order, in a slice
// of exactly their count.
func (b *recordBlock) records() []failures.Record {
	out := make([]failures.Record, len(b.recs))
	for i := range b.recs {
		b.fill(&out[i], &b.recs[i])
	}
	return out
}

// systemBlocks iterates the selected systems' time-sorted blocks in
// catalog order while the generator's one worker pool, a par.Ordered on
// Config.Workers workers, generates the systems ahead of the consumer.
// Each scan tops the pool up to its depth, so at most depth blocks are
// pending and a slow consumer holds generation back; memory still grows
// with the largest blocks, each a whole system. The first error, from a
// system in catalog order, ends the iteration and stops the pool; close
// stops it early. Generate and Stream both consume it.
type systemBlocks struct {
	tasks []systemTask
	next  int // next task to submit
	pool  *par.Ordered[systemBlock]
	block recordBlock
	err   error
}

// systemBlocks validates the configuration and returns the block
// iterator. depth bounds the blocks pending in the pool; it is raised
// to one more than the worker count, so every worker stays busy while
// the consumer holds a block, and capped at the number of systems. The
// workers build their blocks from one shared chunkCache.
func (g *Generator) systemBlocks(depth int) (*systemBlocks, error) {
	tasks, err := g.systemTasks()
	if err != nil {
		return nil, err
	}
	w := g.workers(len(tasks))
	cache := new(chunkCache)
	pool := par.NewOrdered(w, min(max(depth, w+1), len(tasks)), func(_ int, b systemBlock) systemBlock {
		b.block, b.err = g.generateSystem(b.task.sys, b.task.src, cache)
		return b
	})
	return &systemBlocks{tasks: tasks, pool: pool}, nil
}

// scan advances to the next system's block, reporting false once every
// system has been returned or on the first error (see err). Either end
// stops the pool.
func (it *systemBlocks) scan() bool {
	it.block = recordBlock{}
	if it.err != nil {
		return false
	}
	for it.pool.Len() < it.pool.Depth() && it.next < len(it.tasks) {
		it.pool.Submit(systemBlock{task: it.tasks[it.next]})
		it.next++
	}
	if it.pool.Len() == 0 {
		it.close()
		return false
	}
	b := it.pool.Next()
	if b.err != nil {
		it.err = fmt.Errorf("generate system %d: %w", b.task.sys.ID, b.err)
		it.close()
		return false
	}
	it.block = b.block
	return true
}

// close stops the pool, discarding the systems still pending. It is
// safe to call more than once.
func (it *systemBlocks) close() { it.pool.Close() }

// Generate produces the full synthetic dataset across the configured
// systems. Systems generate concurrently (see Config.Workers); the merge
// is deterministic: each block's full records are built as it arrives,
// the blocks concatenate in catalog order and a stable sort by start
// time orders the result, which — stable orders being unique — is
// record-for-record the dataset the sequential reference path produces.
func (g *Generator) Generate() (*failures.Dataset, error) {
	// Every block is kept for the merge, so a bound on the blocks pending
	// would save no memory; it would only hold idle workers behind a slow
	// system still ahead in catalog order.
	it, err := g.systemBlocks(math.MaxInt)
	if err != nil {
		return nil, err
	}
	var blocks [][]failures.Record
	for it.scan() {
		blocks = append(blocks, it.block.records())
	}
	if it.err != nil {
		return nil, it.err
	}
	return failures.NewDatasetSorted(failures.SortedByStart(blocks))
}

// floatPool recycles the profile's rate/cum arrays — the generator's
// largest allocations (~11 MB per full run) — across systems and runs.
// Pooled slices are returned unzeroed; buildProfile writes every element
// it later reads (cum[0] is set explicitly), so stale contents never
// leak into a profile.
var floatPool sync.Pool

func getFloats(n int) []float64 {
	if v := floatPool.Get(); v != nil {
		if s := *(v.(*[]float64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putFloats(s []float64) {
	floatPool.Put(&s)
}

// intensityProfile is the hourly failure-rate modulation of one system:
// lifecycle curve (Figure 4) times hour-of-day and day-of-week cycles
// (Figure 5). cum[h] is the integral of the modulation over the first h
// hours, so cum is strictly increasing and maps wall-clock hours to
// "operational time".
type intensityProfile struct {
	start time.Time
	rate  []float64 // rate[h]: modulation during hour h
	cum   []float64 // cum[h]: integral up to hour h; len = len(rate)+1
}

// buildProfile computes the intensity profile of a system. src drives the
// random month-to-month workload-intensity fluctuations. The window must
// start at a UTC midnight, which ValidateCatalog enforces: the loop reads
// the hour-of-day and weekday factors from profile.go's tables, which
// reproduce the per-hour reference arithmetic of ref.go bitwise.
func (g *Generator) buildProfile(sys System, shape lifecycleShape, infantAmp float64, src *randx.Source) *intensityProfile {
	hours := int(sys.End.Sub(sys.Start).Hours())
	p := &intensityProfile{
		start: sys.Start,
		rate:  getFloats(hours),
		cum:   getFloats(hours + 1),
	}
	p.cum[0] = 0
	const hoursPerMonth = 24 * 30.44
	months := int(float64(hours)/hoursPerMonth) + 1
	monthFactor := make([]float64, months)
	for i := range monthFactor {
		// The variate is always consumed so ablation runs stay on the same
		// randomness stream as the full model.
		monthFactor[i] = src.LogNormal(0, monthSigma)
		if g.cfg.DisableTimeModulation {
			monthFactor[i] = 1
		}
	}
	lc := g.lifecycleTable(shape, infantAmp, hours)
	// Walk month blocks so the month-index division runs once per month
	// boundary, not once per hour, and keep a rolling index into the
	// 168-hour week table instead of re-deriving hour-of-day and weekday.
	wk := (int(sys.Start.Weekday()) * 24) % 168
	acc := 0.0
	for h0 := 0; h0 < hours; {
		mi := int(float64(h0) / hoursPerMonth)
		h1 := monthBlockEnd(h0, mi, hours)
		mf := monthFactor[mi]
		if g.cfg.DisableTimeModulation {
			for h := h0; h < h1; h++ {
				m := lc[h] * mf
				p.rate[h] = m
				acc += m
				p.cum[h+1] = acc
			}
		} else {
			for h := h0; h < h1; h++ {
				m := lc[h] * mf
				m *= weekTable[wk]
				p.rate[h] = m
				acc += m
				p.cum[h+1] = acc
				wk++
				if wk == 168 {
					wk = 0
				}
			}
		}
		h0 = h1
	}
	return p
}

// monthBlockEnd returns the first hour after h0 (capped at hours) whose
// month index int(float64(h)/hoursPerMonth) differs from mi, probing the
// reference expression itself around the arithmetic estimate so block
// boundaries match the per-hour division exactly.
func monthBlockEnd(h0, mi, hours int) int {
	const hoursPerMonth = 24 * 30.44
	h := int(float64(mi+1) * hoursPerMonth)
	if h <= h0 {
		h = h0 + 1
	}
	for h < hours && int(float64(h)/hoursPerMonth) <= mi {
		h++
	}
	for h > h0+1 && int(float64(h-1)/hoursPerMonth) > mi {
		h--
	}
	if h > hours {
		h = hours
	}
	return h
}

// lifecycleAt evaluates the Figure 4 lifecycle multiplier at a system age.
func lifecycleAt(shape lifecycleShape, infantAmp, ageDays float64) float64 {
	switch shape {
	case shapeRamp:
		rampDays := rampMonths * 30.44
		if ageDays < rampDays {
			return rampLow + (rampPeak-rampLow)*(ageDays/rampDays)
		}
		return 1 + (rampPeak-1)*math.Exp(-(ageDays-rampDays)/rampDecayDays)
	default: // shapeInfant
		return 1 + infantAmp*math.Exp(-ageDays/infantTauDays)
	}
}

// hourFactor is the hour-of-day modulation (Figure 5 left): sinusoidal with
// its peak at peakHour and a 2x peak-to-trough ratio. Only ref.go calls
// it; buildProfile reads the same values from hf24.
func hourFactor(t time.Time) float64 {
	hod := float64(t.Hour()) + float64(t.Minute())/60
	return hourFactorAt(hod)
}

// dayFactor is the day-of-week modulation (Figure 5 right). Only ref.go
// calls it; buildProfile reads weekTable.
func dayFactor(t time.Time) float64 {
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		return weekendFactor
	default:
		return weekdayFactor
	}
}

// wallTime maps an operational-time position to a wall-clock instant by
// inverting the cumulative intensity.
func (p *intensityProfile) wallTime(op float64) time.Time {
	return p.timeAt(op, sort.SearchFloat64s(p.cum, op))
}

// timeAt converts a position to an instant given i = the smallest index
// with cum[i] >= op (SearchFloat64s's contract).
func (p *intensityProfile) timeAt(op float64, i int) time.Time {
	h := i - 1
	if h < 0 {
		h = 0
	}
	if h >= len(p.rate) {
		h = len(p.rate) - 1
	}
	frac := 0.0
	if p.rate[h] > 0 {
		frac = (op - p.cum[h]) / p.rate[h]
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return p.start.Add(time.Duration((float64(h) + frac) * float64(time.Hour)))
}

// searchFrom returns the same index SearchFloat64s(p.cum, op) would,
// exploiting that arrival positions within one node only move forward: it
// gallops from a hint known to satisfy cum[hint] < op, then binary
// searches the bracket. The predicate "cum[i] >= op" is monotone, so the
// smallest satisfying index past the hint is the global smallest; a hint
// that does not satisfy the invariant (the first arrival of a node, or a
// zero-length Weibull gap) falls back to the full binary search.
func (p *intensityProfile) searchFrom(op float64, hint int) int {
	n := len(p.cum)
	if hint < 0 || hint >= n || p.cum[hint] >= op {
		return sort.SearchFloat64s(p.cum, op)
	}
	lo, step := hint, 1
	hi := lo + step
	for hi < n && p.cum[hi] < op {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	i, j := lo+1, hi
	for i < j {
		m := int(uint(i+j) >> 1)
		if p.cum[m] < op {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// hourIndex returns the profile hour index of a wall-clock time, clamped to
// the profile bounds.
func (p *intensityProfile) hourIndex(t time.Time) int {
	h := int(t.Sub(p.start).Hours())
	if h < 0 {
		h = 0
	}
	if h > len(p.rate) {
		h = len(p.rate)
	}
	return h
}

// recordChunks is a system block under construction: compact records
// appended into fixed-size chunks that are never reallocated, so a
// growing block is never copied. failures.SortedByStartFunc gathers the
// chunks into one time-sorted slice.
type recordChunks struct {
	chunks [][]compactRecord
	cache  *chunkCache
}

// chunkLen is a chunk's capacity in records (96 KiB).
const chunkLen = 1 << 12

func (c *recordChunks) add(r compactRecord) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == chunkLen {
		c.chunks = append(c.chunks, c.cache.get())
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], r)
}

// chunkCache recycles chunks between the system blocks of one
// systemBlocks iterator, so only the first blocks pay for fresh, zeroed
// chunks. A recycled chunk is taken at length 0 and only appended to,
// so its stale records are overwritten before they are read. The cache
// is dropped with its iterator: no chunk outlives the run.
type chunkCache struct {
	mu   sync.Mutex
	free [][]compactRecord
}

func (c *chunkCache) get() []compactRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		chunk := c.free[n-1]
		c.free = c.free[:n-1]
		return chunk[:0]
	}
	return make([]compactRecord, 0, chunkLen)
}

// put takes back chunks once their records have been gathered.
func (c *chunkCache) put(chunks [][]compactRecord) {
	c.mu.Lock()
	c.free = append(c.free, chunks...)
	c.mu.Unlock()
}

// generateSystem produces all records of one system, sorted by start
// time (stably, preserving generation order on ties), in a block of
// exactly their count.
func (g *Generator) generateSystem(sys System, src *randx.Source, cache *chunkCache) (recordBlock, error) {
	ct, ok := g.hw[sys.HW]
	if !ok {
		return recordBlock{}, fmt.Errorf("no calibration for hardware type %q", sys.HW)
	}
	infantAmp := infantAmplitude
	rateBoost := g.cfg.RateScale
	if firstOfTypeSystems[sys.ID] {
		infantAmp = firstOfTypeAmplitude
		rateBoost *= firstOfTypeBoost
	}
	shape := ct.lifecycle
	if sys.ID == 21 {
		// System 21 was commissioned two years after the other type G
		// systems and follows the conventional early-drop curve
		// (Section 5.2).
		shape = shapeInfant
	}
	profile := g.buildProfile(sys, shape, infantAmp, src)

	isG := sys.HW == "G"
	// The early-era test wallTime(pos).Year() < correlationEndYear is
	// monotone in pos, so it collapses to one comparison against the
	// bisected threshold — replacing the two wallTime inversions the
	// reference path pays per type-G arrival (era test at the previous
	// position plus the record start) with one.
	eraEnd := math.Inf(-1)
	if isG {
		eraEnd = profile.eraThreshold()
	}

	graphics := make(map[int]bool, len(sys.GraphicsNodes))
	for _, n := range sys.GraphicsNodes {
		graphics[n] = true
	}
	frontend := make(map[int]bool, len(sys.FrontendNodes))
	for _, n := range sys.FrontendNodes {
		frontend[n] = true
	}

	weibullScale := 1 / math.Gamma(1+1/tbfWeibullShape)
	// Loop-invariant: the reference path recomputed this Gamma call per
	// node.
	earlyScale := 1 / math.Gamma(1+1/earlyTBFShape)
	records := recordChunks{cache: cache}
	nodeID := 0
	for _, cat := range sys.Categories {
		for i := 0; i < cat.Nodes; i++ {
			node := nodeID
			nodeID++
			factor := 1.0
			workload := failures.WorkloadCompute
			switch {
			case graphics[node]:
				factor = graphicsRateFactor
				workload = failures.WorkloadGraphics
			case frontend[node]:
				factor = frontendRateFactor
				workload = failures.WorkloadFrontend
			default:
				factor = src.LogNormal(0, nodeHeterogeneitySigma)
			}
			years := cat.End.Sub(cat.Start).Hours() / (24 * 365.25)
			meanCount := ct.perProcYearRate * float64(cat.ProcsPerNode) * years * factor * rateBoost
			if meanCount <= 0 {
				continue
			}
			opStart := profile.cum[profile.hourIndex(cat.Start)]
			opEnd := profile.cum[profile.hourIndex(cat.End)]
			opSpan := opEnd - opStart
			if opSpan <= 0 {
				continue
			}
			meanGap := opSpan / meanCount
			pos := opStart
			// hint tracks the last inverted hour: positions only move
			// forward within a node, so the next inversion gallops from
			// here instead of bisecting the whole profile.
			hint := 0
			for {
				// Type G systems draw from a burstier distribution while
				// still in their chaotic early era (Section 5.3).
				shapeK, scaleK := tbfWeibullShape, weibullScale
				if isG && pos < eraEnd {
					shapeK, scaleK = earlyTBFShape, earlyScale
				}
				pos += src.Weibull(shapeK, meanGap*scaleK)
				if pos >= opEnd {
					break
				}
				si := profile.searchFrom(pos, hint)
				start := profile.timeAt(pos, si).Truncate(time.Second)
				if si > 0 {
					hint = si - 1
				}
				startN := start.UnixNano()
				records.add(ct.makeRecord(node, workload, startN, src))
				// Early correlated batches on type G systems (Section 5.3).
				if isG && sys.Nodes > 1 && start.Year() < correlationEndYear &&
					!g.cfg.DisableCorrelatedBatches && src.Float64() < batchProb {
					extra := 1 + src.Intn(maxBatchExtra)
					for e := 0; e < extra; e++ {
						other := src.Intn(sys.Nodes)
						if other == node {
							other = (other + 1) % sys.Nodes
						}
						// Victims keep their own node's workload label;
						// the pre-fix code only recognized graphics
						// victims, mislabeling front-end victims as
						// compute nodes.
						wl := failures.WorkloadCompute
						switch {
						case graphics[other]:
							wl = failures.WorkloadGraphics
						case frontend[other]:
							wl = failures.WorkloadFrontend
						}
						records.add(ct.makeRecord(other, wl, startN, src))
					}
				}
			}
		}
	}
	putFloats(profile.rate)
	putFloats(profile.cum)
	block := recordBlock{system: sys.ID, hw: sys.HW, ct: ct}
	block.recs = failures.SortedByStartFunc(records.chunks, compactStart)
	cache.put(records.chunks)
	return block, nil
}

// maxRepairMinutes caps a drawn repair time at 180 days.
const maxRepairMinutes = 180 * 24 * 60

// makeRecord draws the root cause, detail and repair duration of a failure
// of the given node that starts at start (epoch nanoseconds). Every draw
// reads a compiled table: no map walks, no sorting, no allocation
// (asserted by AllocsPerRun in the tests).
func (ct *compiledHW) makeRecord(node int, workload failures.Workload, start int64, src *randx.Source) compactRecord {
	ci := ct.causeTable.draw(src)
	var detail uint16
	if t := ct.detail[ci]; t != nil {
		detail = uint16(t.draw(src) + 1)
	}
	minutes := src.LogNormal(ct.repairMu[ci], ct.repairSigma[ci])
	if minutes < 1 {
		minutes = 1
	}
	if minutes > maxRepairMinutes {
		minutes = maxRepairMinutes
	}
	repair := time.Duration(minutes * float64(time.Minute))
	return compactRecord{
		start:    start,
		end:      start + int64(repair),
		node:     int32(node),
		workload: uint8(workload),
		cause:    uint8(ci),
		detail:   detail,
	}
}
