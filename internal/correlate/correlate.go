// Package correlate analyzes correlations between failures — the study the
// paper explicitly leaves open ("while we did not perform a rigorous
// analysis of correlations between nodes, this high number of simultaneous
// failures indicates the existence of a tight correlation", Section 5.3).
// It detects simultaneous-failure batches and measures how batch
// frequency changes over a system's life.
package correlate

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hpcfail/internal/failures"
)

// ErrInsufficientData is returned when an analysis needs more records.
var ErrInsufficientData = errors.New("correlate: insufficient data")

// Batch is a group of failures that started within the coincidence window
// of each other — the signature of a shared root cause (power event,
// network partition, interconnect fault).
type Batch struct {
	// Start is the first failure's start time.
	Start time.Time
	// Nodes are the distinct node IDs affected, sorted.
	Nodes []int
	// Records counts the failure records in the batch.
	Records int
	// Causes tallies the root causes within the batch.
	Causes map[failures.RootCause]int
}

// Size returns the number of distinct nodes hit.
func (b Batch) Size() int { return len(b.Nodes) }

// FindBatches groups a (single-system) dataset's records into batches of
// failures starting within window of the batch's first record. Batches of
// size 1 (no co-failure) are excluded.
func FindBatches(d *failures.Dataset, window time.Duration) ([]Batch, error) {
	if d.Len() == 0 {
		return nil, ErrInsufficientData
	}
	if window < 0 {
		return nil, fmt.Errorf("correlate: negative window %v", window)
	}
	records := d.Records() // already time-ordered
	var out []Batch
	i := 0
	for i < len(records) {
		first := records[i]
		j := i
		nodes := map[int]bool{}
		causes := map[failures.RootCause]int{}
		for j < len(records) && !records[j].Start.After(first.Start.Add(window)) {
			nodes[records[j].Node] = true
			causes[records[j].Cause]++
			j++
		}
		if len(nodes) >= 2 {
			b := Batch{Start: first.Start, Records: j - i, Causes: causes}
			for n := range nodes {
				b.Nodes = append(b.Nodes, n)
			}
			sort.Ints(b.Nodes)
			out = append(out, b)
		}
		i = j
	}
	return out, nil
}

// BatchStats summarizes the batch structure of a dataset.
type BatchStats struct {
	// Batches is the number of multi-node batches found.
	Batches int
	// RecordsInBatches counts the failure records involved.
	RecordsInBatches int
	// BatchFraction is the fraction of all records that are part of a
	// multi-node batch.
	BatchFraction float64
	// MeanSize and MaxSize describe batch sizes in distinct nodes.
	MeanSize float64
	MaxSize  int
}

// Summarize computes batch statistics over the dataset.
func Summarize(d *failures.Dataset, window time.Duration) (BatchStats, error) {
	batches, err := FindBatches(d, window)
	if err != nil {
		return BatchStats{}, err
	}
	s := BatchStats{Batches: len(batches)}
	totalSize := 0
	for _, b := range batches {
		s.RecordsInBatches += b.Records
		totalSize += b.Size()
		if b.Size() > s.MaxSize {
			s.MaxSize = b.Size()
		}
	}
	if d.Len() > 0 {
		s.BatchFraction = float64(s.RecordsInBatches) / float64(d.Len())
	}
	if len(batches) > 0 {
		s.MeanSize = float64(totalSize) / float64(len(batches))
	}
	return s, nil
}

// EraComparison contrasts batch behaviour before and after a boundary —
// the paper's observation that system 20's simultaneous failures are an
// early-life phenomenon.
type EraComparison struct {
	EarlyFraction, LateFraction float64
}

// CompareEras computes the batch fraction before and after the boundary.
func CompareEras(d *failures.Dataset, boundary time.Time, window time.Duration) (EraComparison, error) {
	first, last, err := d.TimeSpan()
	if err != nil {
		return EraComparison{}, fmt.Errorf("correlate: %w", err)
	}
	early, err := Summarize(d.Between(first, boundary), window)
	if err != nil {
		return EraComparison{}, fmt.Errorf("correlate early era: %w", err)
	}
	late, err := Summarize(d.Between(boundary, last.Add(time.Second)), window)
	if err != nil {
		return EraComparison{}, fmt.Errorf("correlate late era: %w", err)
	}
	return EraComparison{
		EarlyFraction: early.BatchFraction,
		LateFraction:  late.BatchFraction,
	}, nil
}
