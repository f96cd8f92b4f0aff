package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"testing"

	"hpcfail/internal/failures"
	"hpcfail/internal/streamstats"
)

// FuzzIncrementalSnapshot throws arbitrary bytes at the HFINC01 decoder,
// which a daemon restart runs on every tenant. It must never panic, every
// rejection must wrap one of the documented snapshot errors, and a blob it
// accepts must be canonical — it re-marshals to exactly its own bytes —
// and must answer Result with finite statistics only.
func FuzzIncrementalSnapshot(f *testing.F) {
	golden, err := os.ReadFile("testdata/incremental.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	mismatch := append([]byte(nil), golden...)
	mismatch[len(incMagic)] ^= 1 // sharding flags disagree with the spec
	f.Add(mismatch)
	f.Add([]byte{})
	// The golden's options, with every sample of two or more values
	// studied.
	spec := incSpec()
	spec.MinN = 2
	opts := StreamOptions{Spec: spec, ReservoirSize: 4}
	// States no record fold produces: non-finite and non-positive values
	// and summaries that overflow, which the decoder must refuse, and
	// extreme positive values it accepts.
	for _, x := range [][]float64{
		{math.NaN(), 1}, {math.Inf(1), 1}, {-1, 1}, {0, 1},
		{1e-300, 1e300, 1, 2}, {5e-324, 1e-323, 2e-323, 5e-324},
		{1e-300, 1, 2, 3}, {1e-200, 1e3, 1e4, 1e5},
	} {
		f.Add(foldedSnapshot(f, opts, x))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inc, err := incEngine().ReadIncremental(bytes.NewReader(data), opts)
		if err != nil {
			if !errors.Is(err, ErrIncSnapshot) && !errors.Is(err, ErrIncMismatch) && !errors.Is(err, streamstats.ErrSnapshot) {
				t.Fatalf("rejection wraps no snapshot error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := inc.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted blob re-marshals to different bytes:\n got %x\nwant %x", again.Bytes(), data)
		}
		res, _, err := inc.Result(context.Background())
		if errors.Is(err, failures.ErrNoRecords) && inc.Records() == 0 {
			return
		}
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		for _, sh := range res.Shards {
			for _, st := range []*Study{sh.Interarrival, sh.Repair} {
				checkFinite(t, sh.Key, st)
			}
		}
	})
}

// checkFinite fails the test on any non-finite statistic of a study: its
// summary, the scores of every family that fitted, and every interval.
func checkFinite(t *testing.T, key ShardKey, st *Study) {
	t.Helper()
	if st == nil {
		return
	}
	s := st.Summary
	vals := []float64{s.Mean, s.Median, s.StdDev, s.C2, s.Min, s.Max}
	for _, r := range st.Fits.Results {
		if r.Err == nil {
			vals = append(vals, r.NLL, r.AIC, r.KS)
		}
	}
	for _, cis := range st.CIs {
		for _, ci := range cis {
			vals = append(vals, ci.Estimate, ci.Lo, ci.Hi)
		}
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("shard %s: non-finite statistic in %+v", key, st)
		}
	}
}

// foldedSnapshot snapshots one system shard whose accumulators took xs
// directly rather than through the record fold.
func foldedSnapshot(f *testing.F, opts StreamOptions, xs []float64) []byte {
	f.Helper()
	eng := incEngine()
	key := ShardKey{System: 1}
	a, err := eng.newShardAccum(key, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range xs {
		a.inter.Add(x)
		a.repair.Add(x)
	}
	a.records = len(xs)
	inc := eng.NewIncremental(opts)
	inc.accums[key] = a
	inc.records = a.records
	var buf bytes.Buffer
	if err := inc.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
