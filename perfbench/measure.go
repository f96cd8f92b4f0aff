package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resetPeakRSS returns the heap the set-up left behind to the OS and
// restarts the kernel's peak-resident count, so peak_rss_mb covers the
// timed passes rather than the set-up. Where the kernel refuses the
// reset, the peak stays the whole process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rtStats is a snapshot of the Go runtime counters the benchmark reports
// as deltas over a timed region.
type rtStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    time.Duration
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	// runtime/metrics exposes GC pauses only as a histogram; MemStats
	// has the exact total. Reading it stops the world briefly, which is
	// why it happens only at region boundaries.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{
		allocBytes: rtSamples[0].Value.Uint64(),
		gcCycles:   rtSamples[1].Value.Uint64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPause:    a.gcPause - b.gcPause,
	}
}

// pass is what one timed operation of a workload cost: the time from
// the first call into the program to its result, the CPU the process
// burned meanwhile, and the runtime counters' deltas.
type pass struct {
	wall    time.Duration
	cpu     time.Duration
	rt      rtStats
	records int
}

// region measures fn as one pass. It collects garbage first, so every
// pass starts from the same heap and no pass pays for its predecessor.
func region(fn func() (records int, err error)) (pass, error) {
	runtime.GC()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	n, err := fn()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	return pass{wall: wall, cpu: cpu, rt: readRuntime().sub(rt0), records: n}, err
}

// quantile is the q-quantile of xs, interpolated linearly between the
// order statistics around position q*(n-1) (xs is not modified). A run
// of a batch workload has a dozen or so passes, where nearest rank
// would make p90 jump with the single slowest one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }

// passSummary reduces a run's passes to medians.
type passSummary struct {
	wall, cpu             float64 // seconds
	allocPerRecord        float64
	gcCycles, gcPauseSecs float64
	cpuUtil               float64
}

func summarize(ps []pass) passSummary {
	var wall, cpu, alloc, cycles, pause []float64
	for _, p := range ps {
		wall = append(wall, secs(p.wall))
		cpu = append(cpu, secs(p.cpu))
		alloc = append(alloc, float64(p.rt.allocBytes)/float64(max(p.records, 1)))
		cycles = append(cycles, float64(p.rt.gcCycles))
		pause = append(pause, secs(p.rt.gcPause))
	}
	s := passSummary{
		wall: median(wall), cpu: median(cpu), allocPerRecord: median(alloc),
		gcCycles: median(cycles), gcPauseSecs: median(pause),
	}
	s.cpuUtil = s.cpu / (s.wall * float64(runtime.GOMAXPROCS(0)))
	return s
}
