package lanl

import (
	"reflect"
	"testing"
	"unsafe"

	"hpcfail/internal/failures"
	"hpcfail/internal/randx"
)

// The tests in this file pin the generator's compact system blocks:
// their record layout stays pointer-free and small, the full records
// built from them are the reference path's records exactly, and
// ValidateCatalog keeps every generated instant inside the int64
// nanosecond range the compact record stores.

// hasPointers reports whether a value of type t holds any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default: // pointers, strings, slices, maps, chans, funcs, interfaces
		return true
	}
}

func TestCompactRecordIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(compactRecord{})
	if hasPointers(typ) {
		t.Fatalf("compactRecord holds pointers: %v", typ)
	}
	if size := unsafe.Sizeof(compactRecord{}); size > 32 {
		t.Fatalf("compactRecord is %d bytes, want at most 32", size)
	}
	// The walker itself must see the pointers of the record it replaced.
	if !hasPointers(reflect.TypeOf(failures.Record{})) {
		t.Fatal("hasPointers misses failures.Record's pointers")
	}
}

// TestCompactRecordsMatchReference checks the full records Generate and
// Stream build from compact blocks with ==, which, unlike the field
// checks of sameRecords, also compares each time.Time's location and
// encoding: a record must be the reference path's record exactly.
func TestCompactRecordsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref, err := RefGenerate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		g := NewGenerator(Config{Seed: seed, Workers: 2})
		got, err := g.Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var streamed []failures.Record
		s := g.Stream()
		for s.Scan() {
			streamed = append(streamed, s.Record())
		}
		if err := s.Err(); err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		streamed = failures.SortedByStart([][]failures.Record{streamed})
		if got.Len() != ref.Len() || len(streamed) != ref.Len() {
			t.Fatalf("seed %d: Generate %d and Stream %d records, reference %d", seed, got.Len(), len(streamed), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if want := ref.At(i); got.At(i) != want || streamed[i] != want {
				t.Fatalf("seed %d: record %d:\nGenerate %#v\n  Stream %#v\n    want %#v", seed, i, got.At(i), streamed[i], want)
			}
		}
	}
}

// TestCompactRecordNanosecondRange generates systems whose windows sit
// just inside either end of the int64 nanosecond range, against the
// reference path, which holds times as time.Time and so cannot wrap;
// one month further out, ValidateCatalog must refuse each window.
func TestCompactRecordNanosecondRange(t *testing.T) {
	system := func(startYear, startMonth, endYear, endMonth int) System {
		start, end := date(startYear, startMonth), date(endYear, endMonth)
		return System{
			ID: 99, HW: "E", Nodes: 4, Procs: 512,
			Categories: []NodeCategory{{Nodes: 4, ProcsPerNode: 128, Start: start, End: end}},
			Start:      start, End: end,
		}
	}
	// The range runs from 1677-09-21 to 2262-04-11; a window's ends can
	// reach 180 days past its close.
	inside := []System{system(1677, 10, 1678, 10), system(2261, 1, 2261, 10)}
	outside := []System{system(1677, 9, 1678, 10), system(2261, 1, 2261, 11)}
	for _, sys := range inside {
		if err := ValidateCatalog([]System{sys}); err != nil {
			t.Fatalf("window [%v, %v]: %v", sys.Start, sys.End, err)
		}
		g := NewGenerator(Config{Seed: 5, RateScale: 20})
		block, err := g.generateSystem(sys, randx.NewSource(5), new(chunkCache))
		if err != nil {
			t.Fatal(err)
		}
		rg := &refGenerator{cfg: g.cfg, hw: hwTable(), repairs: repairTable()}
		refRecords, err := rg.generateSystem(sys, randx.NewSource(5))
		if err != nil {
			t.Fatal(err)
		}
		got, want := block.records(), failures.SortedByStart([][]failures.Record{refRecords})
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("window [%v, %v]: %d records, reference %d", sys.Start, sys.End, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("window [%v, %v]: record %d:\n got %#v\nwant %#v", sys.Start, sys.End, i, got[i], want[i])
			}
		}
	}
	for _, sys := range outside {
		if err := ValidateCatalog([]System{sys}); err == nil {
			t.Errorf("ValidateCatalog accepted window [%v, %v]", sys.Start, sys.End)
		}
	}
}
