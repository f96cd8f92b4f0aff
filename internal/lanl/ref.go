package lanl

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/randx"
)

// This file freezes the pre-kernel generation path exactly as it shipped
// before the compiled/parallel rewrite, the same way dist/ref.go freezes
// the pre-kernel fitters: a map-walking, per-record-allocating sequential
// implementation that serves as the bit-identity oracle. The property
// tests assert that Generate — at any worker count, with any subset or
// ablation configuration — reproduces RefGenerate on every record field.
//
// Do not "improve" this file; its value is that it does not change.

// RefGenerate produces the dataset with the frozen sequential reference
// path. It exists for identity tests; use
// NewGenerator(cfg).Generate() for real work — same output, much faster.
func RefGenerate(cfg Config) (*failures.Dataset, error) {
	if cfg.RateScale == 0 {
		cfg.RateScale = 1
	}
	g := &refGenerator{cfg: cfg, hw: hwTable(), repairs: repairTable()}
	want := make(map[int]bool, len(cfg.Systems))
	for _, id := range cfg.Systems {
		want[id] = true
	}
	root := randx.NewSource(cfg.Seed)
	var all []failures.Record
	for _, sys := range Catalog() {
		// Every system consumes one child source whether selected or not,
		// so a subset run reproduces the full run's records exactly.
		src := root.Split()
		if len(want) > 0 && !want[sys.ID] {
			continue
		}
		records, err := g.generateSystem(sys, src)
		if err != nil {
			return nil, fmt.Errorf("generate system %d: %w", sys.ID, err)
		}
		all = append(all, records...)
	}
	return failures.NewDataset(all)
}

// refGenerator carries the frozen path's state: the raw calibration maps,
// re-walked and re-sorted per record.
type refGenerator struct {
	cfg     Config
	hw      map[failures.HWType]hwParams
	repairs map[failures.RootCause]repairParam
}

// buildProfile is the frozen per-hour profile construction: one time.Time
// per hour, trigonometry and lifecycle exponentials recomputed every call.
func (g *refGenerator) buildProfile(sys System, shape lifecycleShape, infantAmp float64, src *randx.Source) *intensityProfile {
	hours := int(sys.End.Sub(sys.Start).Hours())
	p := &intensityProfile{
		start: sys.Start,
		rate:  make([]float64, hours),
		cum:   make([]float64, hours+1),
	}
	const hoursPerMonth = 24 * 30.44
	months := int(float64(hours)/hoursPerMonth) + 1
	monthFactor := make([]float64, months)
	for i := range monthFactor {
		monthFactor[i] = src.LogNormal(0, monthSigma)
		if g.cfg.DisableTimeModulation {
			monthFactor[i] = 1
		}
	}
	for h := 0; h < hours; h++ {
		t := sys.Start.Add(time.Duration(h) * time.Hour)
		ageDays := float64(h) / 24
		m := lifecycleAt(shape, infantAmp, ageDays) * monthFactor[int(float64(h)/hoursPerMonth)]
		if !g.cfg.DisableTimeModulation {
			m *= hourFactor(t) * dayFactor(t)
		}
		p.rate[h] = m
		p.cum[h+1] = p.cum[h] + m
	}
	return p
}

// generateSystem is the frozen per-system loop, including the pre-fix
// correlated-batch victim labeling (graphics checked, front-end not) and
// the per-node recomputation of the early-era Weibull scale.
func (g *refGenerator) generateSystem(sys System, src *randx.Source) ([]failures.Record, error) {
	params, ok := g.hw[sys.HW]
	if !ok {
		return nil, fmt.Errorf("no calibration for hardware type %q", sys.HW)
	}
	infantAmp := infantAmplitude
	rateBoost := g.cfg.RateScale
	if firstOfTypeSystems[sys.ID] {
		infantAmp = firstOfTypeAmplitude
		rateBoost *= firstOfTypeBoost
	}
	shape := params.lifecycle
	if sys.ID == 21 {
		shape = shapeInfant
	}
	profile := g.buildProfile(sys, shape, infantAmp, src)

	graphics := make(map[int]bool, len(sys.GraphicsNodes))
	for _, n := range sys.GraphicsNodes {
		graphics[n] = true
	}
	frontend := make(map[int]bool, len(sys.FrontendNodes))
	for _, n := range sys.FrontendNodes {
		frontend[n] = true
	}

	weibullScale := 1 / math.Gamma(1+1/tbfWeibullShape)
	var records []failures.Record
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
			meanCount := params.perProcYearRate * float64(cat.ProcsPerNode) * years * factor * rateBoost
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
			earlyScale := 1 / math.Gamma(1+1/earlyTBFShape)
			pos := opStart
			for {
				shapeK, scaleK := tbfWeibullShape, weibullScale
				if sys.HW == "G" && profile.wallTime(pos).Year() < correlationEndYear {
					shapeK, scaleK = earlyTBFShape, earlyScale
				}
				pos += src.Weibull(shapeK, meanGap*scaleK)
				if pos >= opEnd {
					break
				}
				start := profile.wallTime(pos).Truncate(time.Second)
				records = append(records, g.makeRecord(sys, params, node, workload, start, src))
				if sys.HW == "G" && sys.Nodes > 1 && start.Year() < correlationEndYear &&
					!g.cfg.DisableCorrelatedBatches && src.Float64() < batchProb {
					extra := 1 + src.Intn(maxBatchExtra)
					for e := 0; e < extra; e++ {
						other := src.Intn(sys.Nodes)
						if other == node {
							other = (other + 1) % sys.Nodes
						}
						wl := failures.WorkloadCompute
						if graphics[other] {
							wl = failures.WorkloadGraphics
						}
						records = append(records, g.makeRecord(sys, params, other, wl, start, src))
					}
				}
			}
		}
	}
	return records, nil
}

// makeRecord is the frozen per-record draw: a fresh failures.Causes()
// slice per call, map-walking detail draws, and a per-call math.Log on
// the repair shift.
func (g *refGenerator) makeRecord(sys System, params hwParams, node int, workload failures.Workload, start time.Time, src *randx.Source) failures.Record {
	causes := failures.Causes()
	cause := causes[src.Categorical(params.causeWeights[:])]
	detail := g.drawDetail(params, cause, src)
	repair := g.drawRepair(params, cause, src)
	return failures.Record{
		System:   sys.ID,
		Node:     node,
		HW:       sys.HW,
		Workload: workload,
		Cause:    cause,
		Detail:   detail,
		Start:    start,
		End:      start.Add(repair),
	}
}

// drawDetail is the frozen detail draw: a map literal per environment
// record, and a key sort plus two slice allocations per call.
func (g *refGenerator) drawDetail(params hwParams, cause failures.RootCause, src *randx.Source) string {
	var table map[string]float64
	switch cause {
	case failures.CauseHardware:
		table = params.hwDetail
	case failures.CauseSoftware:
		table = params.swDetail
	case failures.CauseEnvironment:
		table = map[string]float64{"power outage": 0.6, "A/C failure": 0.4}
	default:
		return ""
	}
	// Deterministic iteration order for reproducibility.
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	weights := make([]float64, len(keys))
	for i, k := range keys {
		weights[i] = table[k]
	}
	return keys[src.Categorical(weights)]
}

// drawRepair is the frozen repair draw, recomputing the log mu shift per
// record.
func (g *refGenerator) drawRepair(params hwParams, cause failures.RootCause, src *randx.Source) time.Duration {
	rp := g.repairs[cause]
	minutes := src.LogNormal(rp.mu+math.Log(params.repairMuShift), rp.sigma)
	const maxMinutes = 180 * 24 * 60
	if minutes < 1 {
		minutes = 1
	}
	if minutes > maxMinutes {
		minutes = maxMinutes
	}
	return time.Duration(minutes * float64(time.Minute))
}
