package correlate

import (
	"errors"
	"math"
	"testing"
	"time"

	"hpcfail/internal/failures"
	"hpcfail/internal/lanl"
)

var t0 = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func rec(node, startMin int) failures.Record {
	return failures.Record{
		System:   1,
		Node:     node,
		HW:       "E",
		Workload: failures.WorkloadCompute,
		Cause:    failures.CauseHardware,
		Start:    t0.Add(time.Duration(startMin) * time.Minute),
		End:      t0.Add(time.Duration(startMin+30) * time.Minute),
	}
}

func TestFindBatches(t *testing.T) {
	d, err := failures.NewDataset([]failures.Record{
		rec(1, 0), rec(2, 0), rec(3, 1), // batch of 3 nodes
		rec(4, 100),              // singleton
		rec(5, 200), rec(5, 200), // same node twice: NOT a multi-node batch
		rec(6, 300), rec(7, 302), // batch of 2 within 5-minute window
	})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := FindBatches(d, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %+v", batches)
	}
	if batches[0].Size() != 3 || batches[0].Records != 3 {
		t.Fatalf("first batch = %+v", batches[0])
	}
	if batches[0].Nodes[0] != 1 || batches[0].Nodes[2] != 3 {
		t.Fatalf("first batch nodes = %v", batches[0].Nodes)
	}
	if batches[1].Size() != 2 {
		t.Fatalf("second batch = %+v", batches[1])
	}
	if batches[0].Causes[failures.CauseHardware] != 3 {
		t.Fatalf("causes = %v", batches[0].Causes)
	}
}

func TestFindBatchesErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindBatches(empty, time.Minute); !errors.Is(err, ErrInsufficientData) {
		t.Fatal("empty: want ErrInsufficientData")
	}
	d, err := failures.NewDataset([]failures.Record{rec(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindBatches(d, -time.Minute); err == nil {
		t.Fatal("negative window: want error")
	}
}

func TestSummarize(t *testing.T) {
	d, err := failures.NewDataset([]failures.Record{
		rec(1, 0), rec(2, 0),
		rec(3, 100),
		rec(4, 200), rec(5, 200), rec(6, 200),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(d, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if s.Batches != 2 || s.RecordsInBatches != 5 || s.MaxSize != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.BatchFraction-5.0/6) > 1e-12 {
		t.Fatalf("fraction = %g", s.BatchFraction)
	}
	if math.Abs(s.MeanSize-2.5) > 1e-12 {
		t.Fatalf("mean size = %g", s.MeanSize)
	}
}

func TestEraComparisonOnReferenceTrace(t *testing.T) {
	// System 20's early era has far more correlated batches than its late
	// era — the Section 5.3 observation, now quantified.
	d, err := lanl.NewGenerator(lanl.Config{Seed: 1, Systems: []int{20}}).Generate()
	if err != nil {
		t.Fatal(err)
	}
	boundary := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	cmp, err := CompareEras(d, boundary, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EarlyFraction < 0.3 {
		t.Errorf("early batch fraction = %.3f, want > 0.3", cmp.EarlyFraction)
	}
	if cmp.LateFraction > cmp.EarlyFraction/3 {
		t.Errorf("late fraction %.3f should be far below early %.3f",
			cmp.LateFraction, cmp.EarlyFraction)
	}
}

func TestCompareErasErrors(t *testing.T) {
	empty, err := failures.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareEras(empty, t0, time.Minute); err == nil {
		t.Fatal("empty: want error")
	}
}
