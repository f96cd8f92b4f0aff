package engine

import (
	"context"
	"errors"
	"testing"

	"hpcfail/internal/dist"
	"hpcfail/internal/stats"
)

// Crafting two float64 slices that genuinely collide on 64-bit FNV-1a is
// infeasible at test time, so these tests forge the collision: they
// intern values under a supplied hash, exactly the state a real
// collision would leave in a call's fit table. The table
// must keep the samples apart, count the collision, and never serve the
// other sample's entry.

var errPoisoned = errors.New("poisoned table entry served")

// TestFitMemoDetectsHashCollision plants a same-hash entry with a
// poisoned fit in a call's fit table: the victim sample must get a fresh,
// chained entry, never the poisoned fit.
func TestFitMemoDetectsHashCollision(t *testing.T) {
	e := New(Options{Workers: 1, BootstrapReps: -1})
	xs := sample(t, 200)
	hash := stats.HashSample(xs)

	forged := &tableEntry{
		xs:   []float64{1, 2, 3},
		hash: hash,
		fits: []dist.FitResult{{Family: dist.FamilyWeibull, Err: errPoisoned}},
	}
	tab := fitTable{hash: {forged}}

	ent, fresh := e.intern(tab, xs, hash)
	if ent == forged {
		t.Fatal("intern served the colliding entry")
	}
	if !fresh || ent.fits != nil {
		t.Fatal("colliding sample did not get a fresh entry")
	}
	if len(ent.xs) != len(xs) {
		t.Fatalf("entry N = %d, want %d", len(ent.xs), len(xs))
	}
	if got := e.Collisions(); got != 1 {
		t.Fatalf("Collisions = %d, want 1", got)
	}
	if chained := len(tab[hash]); chained != 2 {
		t.Fatalf("chain length = %d, want 2", chained)
	}

	// A repeat of the same values must find the chained entry, without
	// another collision or a third entry.
	again, fresh := e.intern(tab, append([]float64(nil), xs...), hash)
	if again != ent || fresh {
		t.Fatal("re-intern did not return the chained entry")
	}
	if got := e.Collisions(); got != 1 {
		t.Fatalf("Collisions after repeat = %d, want 1", got)
	}
	if chained := len(tab[hash]); chained != 2 {
		t.Fatalf("chain length after repeat = %d, want 2", chained)
	}
}

// TestCIMemoDetectsHashCollision plants a same-hash entry with a poisoned
// interval target: the victim's fresh entry carries no interval of the
// other sample, and the interval computed for the victim succeeds.
func TestCIMemoDetectsHashCollision(t *testing.T) {
	e := New(Options{Workers: 1, BootstrapReps: 16})
	xs := sample(t, 200)
	hash := stats.HashSample(xs)

	forged := &tableEntry{
		xs:   []float64{42},
		hash: hash,
		fits: []dist.FitResult{{Family: dist.FamilyWeibull}},
		cis:  []*ciTarget{{f: dist.FamilyWeibull, err: errPoisoned}},
	}
	tab := fitTable{hash: {forged}}

	ent, fresh := e.intern(tab, xs, hash)
	if ent == forged || !fresh {
		t.Fatal("intern served the colliding entry")
	}
	if ent.cis != nil {
		t.Fatal("fresh entry carries the colliding entry's intervals")
	}
	if got := e.Collisions(); got != 1 {
		t.Fatalf("Collisions = %d, want 1", got)
	}

	_, cis, err := e.FitCISample(context.Background(), dist.NewSamplePrehashed(ent.xs, ent.hash), dist.FamilyWeibull)
	if errors.Is(err, errPoisoned) {
		t.Fatal("engine served the colliding entry's error")
	}
	if err != nil {
		t.Fatalf("fresh CI failed: %v", err)
	}
	if len(cis) == 0 {
		t.Fatal("no intervals returned")
	}
}

// TestSampleInternDetectsHashCollision covers same-hash samples that a
// cheap identity check would merge: the table compares every value.
func TestSampleInternDetectsHashCollision(t *testing.T) {
	xs := sample(t, 50)
	// Same length, first and last value as xs; only a middle value
	// differs.
	middle := append([]float64(nil), xs...)
	middle[len(middle)/2] *= 2
	for _, tc := range []struct {
		name  string
		other []float64
	}{
		{"other length", []float64{1, 2, 3}},
		{"same endpoints", middle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Workers: 1})
			hash := stats.HashSample(xs)
			tab := make(fitTable)
			a, _ := e.intern(tab, tc.other, hash)
			b, fresh := e.intern(tab, xs, hash)
			if b == a || !fresh {
				t.Fatal("intern merged samples with different values")
			}
			if got := e.Collisions(); got != 1 {
				t.Fatalf("Collisions = %d, want 1", got)
			}
		})
	}
}

// TestInternSharesSample pins the interning contract itself: equal content
// yields the same entry, different content does not.
func TestInternSharesSample(t *testing.T) {
	e := New(Options{})
	xs := sample(t, 100)
	ys := append([]float64(nil), xs...)
	tab := make(fitTable)
	a, _ := e.intern(tab, xs, stats.HashSample(xs))
	b, fresh := e.intern(tab, ys, stats.HashSample(ys))
	if a != b || fresh {
		t.Fatal("equal-content slices interned to different entries")
	}
	if c, _ := e.intern(tab, xs[:50], stats.HashSample(xs[:50])); c == a {
		t.Fatal("different content interned to the same entry")
	}
	if e.Collisions() != 0 {
		t.Fatalf("Collisions = %d, want 0", e.Collisions())
	}
}
