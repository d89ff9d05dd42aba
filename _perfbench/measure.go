package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"asymstream/internal/kernel"
	kmetrics "asymstream/internal/metrics"
)

// sample is everything read at a phase boundary: wall clock, process
// CPU and context switches (getrusage), Go runtime counters and the
// kernel's own counters.
type sample struct {
	t        time.Time
	win      int64 // tick of the benchmark's clock it was taken in
	stealMs  int64 // host steal so far (hostStealMs), -1 if unknown
	cpuNs    int64
	nvcsw    int64
	mallocs  uint64
	schedNs  float64 // sum of goroutine scheduling latencies
	gcCPU    float64 // cpu-seconds
	totalCPU float64 // cpu-seconds
	met      kmetrics.Snapshot
}

var runtimeNames = []string{
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeSample(k *kernel.Kernel) sample {
	s := sample{t: time.Now(), win: nowNs() / int64(tick), stealMs: hostStealMs()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
		s.nvcsw = ru.Nvcsw
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs

	rs := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		rs[i].Name = n
	}
	metrics.Read(rs)
	if rs[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedNs = histSumNs(rs[0].Value.Float64Histogram())
	}
	if rs[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rs[1].Value.Float64()
	}
	if rs[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = rs[2].Value.Float64()
	}
	if k != nil {
		s.met = k.Metrics().Snapshot()
	}
	return s
}

// histSumNs estimates the sum of a runtime histogram's samples (in
// seconds) as count × bucket midpoint, in ns.  Open-ended buckets use
// their finite edge.
func histSumNs(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var v float64
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		default:
			v = (lo + hi) / 2
		}
		sum += float64(c) * v * 1e9
	}
	return sum
}

// delta is the difference between two samples.
type delta struct {
	wall    time.Duration
	cpuNs   int64
	nvcsw   int64
	mallocs uint64
	schedNs float64
	gcCPU   float64
	cpu     float64
	met     kmetrics.Snapshot
}

func between(a, b sample) delta {
	return delta{
		wall:    b.t.Sub(a.t),
		cpuNs:   b.cpuNs - a.cpuNs,
		nvcsw:   b.nvcsw - a.nvcsw,
		mallocs: b.mallocs - a.mallocs,
		schedNs: b.schedNs - a.schedNs,
		gcCPU:   b.gcCPU - a.gcCPU,
		cpu:     b.totalCPU - a.totalCPU,
		met:     kmetrics.Diff(a.met, b.met),
	}
}

// liveHeapMB forces two collections and returns the heap still in
// use.  The first moves sync.Pool contents to the pools' victim caches
// and the second frees them, so what the pools happened to hold at the
// end of the phase does not count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func perItem(x float64, items int64) float64 {
	if items <= 0 {
		return 0
	}
	return x / float64(items)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tick is the width of the windows a timed phase is cut into.  Rates
// and per-item costs are reported as medians over windows, so a
// transient stall of the shared host moves one window, not the figure.
// Windows lie on the benchmark clock's tick grid, so a latency window
// (by receive time) and a phase window of the same index are the same
// half second.
const tick = 500 * time.Millisecond

// keepQuiet marks the parts of a run (windows or set-ups) to measure
// over: those in which the hypervisor stole no more CPU than in the
// median part.  Steal is time this VM wanted to run and could not, so
// a part with more of it measures the host's other tenants as much as
// the program.  At least half the parts are kept; all of them when
// steal is not known.
func keepQuiet(stealMs []int64) []bool {
	keep := make([]bool, len(stealMs))
	known := make([]float64, 0, len(stealMs))
	for _, st := range stealMs {
		if st < 0 {
			for i := range keep {
				keep[i] = true
			}
			return keep
		}
		known = append(known, float64(st))
	}
	m := median(known)
	for i, st := range stealMs {
		keep[i] = float64(st) <= m
	}
	return keep
}

// quietMedian is the median of xs over the parts keepQuiet keeps.
func quietMedian(xs []float64, stealMs []int64) float64 {
	keep := keepQuiet(stealMs)
	var kept []float64
	for i, x := range xs {
		if keep[i] {
			kept = append(kept, x)
		}
	}
	return median(kept)
}

// stealSince is the host steal since an earlier hostStealMs reading,
// or -1 if unknown.
func stealSince(ms int64) int64 {
	now := hostStealMs()
	if ms < 0 || now < 0 {
		return -1
	}
	return now - ms
}

// stealBetween is the host steal from a to b, or -1 if unknown.
func stealBetween(a, b sample) int64 {
	if a.stealMs < 0 || b.stealMs < 0 {
		return -1
	}
	return b.stealMs - a.stealMs
}

// point is a sample and the phase's item count at that moment.
type point struct {
	s sample
	n int64
}

// samplePhase samples at every tick boundary for d and returns the
// points, including both ends.
func samplePhase(k *kernel.Kernel, d time.Duration, count func() int64) []point {
	pts := []point{{takeSample(k), count()}}
	end := pts[0].s.t.Add(d)
	for now := time.Now(); now.Before(end); now = time.Now() {
		next := clockBase.Add(time.Duration(pts[len(pts)-1].s.win+1) * tick)
		if next.After(end) {
			next = end
		}
		time.Sleep(next.Sub(now))
		pts = append(pts, point{takeSample(k), count()})
	}
	return pts
}

// phaseStats reduces a phase's points.
type phaseStats struct {
	rate          float64 // items/s, median over quiet windows
	cpuPerItemNs  float64 // median over quiet windows
	allocsPerItem float64 // median over quiet windows
	items         int64   // over the whole phase
	total         delta   // over the whole phase
	windows       int     // full windows
	quiet         map[int64]bool
}

func reducePhase(pts []point) phaseStats {
	var ps phaseStats
	if len(pts) < 2 {
		return ps
	}
	first, last := pts[0], pts[len(pts)-1]
	ps.items, ps.total = last.n-first.n, between(first.s, last.s)
	var rates, cpus, allocs []float64
	var wins, steal []int64
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		n := b.n - a.n
		wall := b.s.t.Sub(a.s.t)
		if n <= 0 || wall < tick/2 {
			continue
		}
		rates = append(rates, float64(n)/wall.Seconds())
		cpus = append(cpus, float64(b.s.cpuNs-a.s.cpuNs)/float64(n))
		allocs = append(allocs, float64(b.s.mallocs-a.s.mallocs)/float64(n))
		wins = append(wins, a.s.win)
		steal = append(steal, stealBetween(a.s, b.s))
	}
	ps.windows = len(rates)
	if ps.windows == 0 {
		// A phase shorter than half a tick: use its totals.
		ps.rate = float64(ps.items) / ps.total.wall.Seconds()
		ps.cpuPerItemNs = perItem(float64(ps.total.cpuNs), ps.items)
		ps.allocsPerItem = perItem(float64(ps.total.mallocs), ps.items)
		return ps
	}
	ps.rate, ps.cpuPerItemNs, ps.allocsPerItem = quietMedian(rates, steal), quietMedian(cpus, steal), quietMedian(allocs, steal)
	ps.quiet = map[int64]bool{}
	for i, ok := range keepQuiet(steal) {
		if ok {
			ps.quiet[wins[i]] = true
		}
	}
	return ps
}
