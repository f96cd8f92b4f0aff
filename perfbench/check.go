package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"hpcfail/internal/dist"
	"hpcfail/internal/engine"
	"hpcfail/internal/serve"
)

// gate counts the operations a run attempted and those that failed a
// correctness check. Any failure fails the run.
type gate struct {
	attempted, failed int
	errs              []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (g *gate) op(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.errs) < 8 {
			g.errs = append(g.errs, err.Error())
		}
	}
}

func (g *gate) ok() bool { return g.attempted > 0 && g.failed == 0 }

// checkConserved is trace-scan's record-conservation gate: every record
// written is in the file and was scanned, in the order written. The
// generator streams systems one after another, each in start-time
// order, so the engine finds records out of order in the fleet shard
// only, and exactly as many as the writer counted.
func checkConserved(written, inFile, scanned, outOfOrder, wantOutOfOrder int) error {
	if written != inFile || inFile != scanned {
		return fmt.Errorf("records not conserved: written %d, file %d, scanned %d", written, inFile, scanned)
	}
	if outOfOrder != wantOutOfOrder {
		return fmt.Errorf("%d records out of order, the written stream has %d", outOfOrder, wantOutOfOrder)
	}
	return nil
}

// checkSame fails when a result digest differs from the reference one:
// the same seed must give the same bytes on every pass and at every
// worker count.
func checkSame(what, want, got string) error {
	if want != got {
		return fmt.Errorf("%s digest %s differs from %s", what, got, want)
	}
	return nil
}

// fleetDigest serializes a fleet result and its rendered table
// canonically, every float in its exact shortest form, and returns the
// sha256 of that text. It fails on a shard error, a failed fit or any
// non-finite value.
func fleetDigest(r *engine.FleetResult, table string) (string, error) {
	if r == nil || len(r.Shards) == 0 {
		return "", fmt.Errorf("empty fleet result")
	}
	var b strings.Builder
	var bad []string
	num := func(where string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, where)
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		b.WriteByte(' ')
	}
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "shard %s records %d\n", s.Key, s.Records)
		if s.Err != nil {
			bad = append(bad, s.Key.String()+": "+s.Err.Error())
			continue
		}
		for _, st := range []struct {
			name string
			s    *engine.Study
		}{{"interarrival", s.Interarrival}, {"repair", s.Repair}} {
			if st.s == nil {
				fmt.Fprintf(&b, "%s none\n", st.name)
				continue
			}
			where := s.Key.String() + " " + st.name
			sum := st.s.Summary
			fmt.Fprintf(&b, "%s n %d summary ", st.name, st.s.N)
			for _, v := range []float64{sum.Mean, sum.Median, sum.StdDev, sum.Variance, sum.C2, sum.Min, sum.Max} {
				num(where+" summary", v)
			}
			b.WriteByte('\n')
			for _, f := range st.s.Fits.Results {
				fmt.Fprintf(&b, "fit %v ", f.Family)
				if f.Err != nil {
					bad = append(bad, fmt.Sprintf("%s %v: %v", where, f.Family, f.Err))
					continue
				}
				if p, ok := f.Dist.(dist.Parameterized); ok {
					for _, v := range p.ParamValues() {
						num(where+" params", v)
					}
				}
				num(where+" nll", f.NLL)
				num(where+" aic", f.AIC)
				num(where+" ks", f.KS)
				b.WriteByte('\n')
			}
			fams := make([]dist.Family, 0, len(st.s.CIs))
			for f := range st.s.CIs {
				fams = append(fams, f)
			}
			sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
			for _, f := range fams {
				fmt.Fprintf(&b, "ci %v ", f)
				for _, ci := range st.s.CIs[f] {
					b.WriteString(ci.Name + " ")
					num(where+" ci", ci.Estimate)
					num(where+" ci", ci.Lo)
					num(where+" ci", ci.Hi)
				}
				b.WriteByte('\n')
			}
		}
	}
	if len(bad) > 0 {
		return "", fmt.Errorf("non-finite or failed values in %d places, first: %s", len(bad), bad[0])
	}
	b.WriteString(table)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// checkPaperBand pins the paper's finding on fleet-bootstrap: system
// 20's Weibull interarrival shape lies in 0.70–0.80.
func checkPaperBand(r *engine.FleetResult) error {
	s, ok := r.Shard(engine.ShardKey{System: 20})
	if !ok {
		return fmt.Errorf("no system 20 shard")
	}
	ci, ok := s.Interarrival.WeibullShapeCI()
	if !ok {
		return fmt.Errorf("system 20 has no Weibull shape interval")
	}
	if ci.Estimate < 0.70 || ci.Estimate > 0.80 {
		return fmt.Errorf("system 20 Weibull shape %.4f outside the paper's 0.70-0.80", ci.Estimate)
	}
	return nil
}

// checkCIs requires every bootstrap interval to be finite and to
// bracket its estimate.
func checkCIs(r *engine.FleetResult) error {
	for _, s := range r.Shards {
		for _, st := range []*engine.Study{s.Interarrival, s.Repair} {
			if st == nil {
				continue
			}
			for f, cis := range st.CIs {
				for _, ci := range cis {
					for _, v := range []float64{ci.Estimate, ci.Lo, ci.Hi} {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							return fmt.Errorf("%s %v %s interval is not finite", s.Key, f, ci.Name)
						}
					}
					if ci.Lo > ci.Estimate || ci.Estimate > ci.Hi {
						return fmt.Errorf("%s %v %s interval [%g, %g] misses its estimate %g",
							s.Key, f, ci.Name, ci.Lo, ci.Hi, ci.Estimate)
					}
				}
			}
		}
	}
	return nil
}

// checkAck is serve-mixed's ingest gate: a 2xx whose ack accepted every
// record of the batch, quarantined none and was not a dedupe replay.
func checkAck(status int, body []byte, sent int) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("ingest answered %d: %s", status, bytes.TrimSpace(body))
	}
	var ack serve.IngestResult
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest ack: %w", err)
	}
	if ack.Accepted != sent || ack.Quarantined != 0 || ack.Duplicate {
		return fmt.Errorf("ingest ack %+v for a batch of %d", ack, sent)
	}
	return nil
}

// checkResult validates one /result body and returns its sha256: a 200
// with well-formed JSON in which no statistic is NaN or infinite (serve
// renders those as the strings "NaN", "+Inf" and "-Inf").
func checkResult(status int, body []byte) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("result answered %d: %s", status, bytes.TrimSpace(body))
	}
	if !json.Valid(body) {
		return "", fmt.Errorf("result body is not valid JSON")
	}
	for _, tok := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`} {
		if bytes.Contains(body, []byte(tok)) {
			return "", fmt.Errorf("result holds a non-finite value %s", tok)
		}
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}

// checkSummary requires the tenant's final record count to equal the
// records sent.
func checkSummary(status int, body []byte, sent int) error {
	if status != http.StatusOK {
		return fmt.Errorf("summary answered %d: %s", status, bytes.TrimSpace(body))
	}
	var sum struct {
		Records int `json:"records"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if sum.Records != sent {
		return fmt.Errorf("summary counts %d records, %d were sent", sum.Records, sent)
	}
	return nil
}
