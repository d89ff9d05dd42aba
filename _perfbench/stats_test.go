package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketRangeCoversValue(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 40, math.MaxInt64} {
		lo, hi := bucketRange(bucketOf(v))
		if v < lo || (hi > lo && v >= hi) {
			t.Errorf("value %d outside its bucket [%d, %d)", v, lo, hi)
		}
	}
}

func TestHistQuantileWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &hist{}
	xs := make([]int64, 50_000)
	for i := range xs {
		xs[i] = int64(rng.ExpFloat64() * 200_000) // ns, long tail
		h.add(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(math.Ceil(q*float64(len(xs))))-1])
		got := h.quantile(q)
		if math.Abs(got-exact) > exact/100+1 {
			t.Errorf("q%.3f = %.0f, exact %.0f: off by more than 1%%", q, got, exact)
		}
	}
}

func TestHistSampleCounts(t *testing.T) {
	h := &hist{}
	for v := int64(0); v < 100; v++ { // exact buckets
		h.add(v)
	}
	if h.n != 100 {
		t.Fatalf("n = %d, want 100", h.n)
	}
	if got := h.quantile(0.99); got != 98 {
		t.Errorf("p99 of 0..99 = %v, want 98", got)
	}
	if got := h.beyond(0.99); got != 1 {
		t.Errorf("samples beyond p99 = %d, want 1", got)
	}
	if got := h.quantile(0.5); got != 49 {
		t.Errorf("p50 of 0..99 = %v, want 49", got)
	}
	if got := h.countAbove(89); got != 10 {
		t.Errorf("countAbove(89) = %d, want 10", got)
	}
	var empty hist
	if empty.quantile(0.99) != 0 || empty.beyond(0.99) != 0 {
		t.Error("empty histogram should report 0")
	}
}

func TestSummarizeLatency(t *testing.T) {
	h := &hist{}
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000) // 1 µs .. 1 ms
	}
	st := h.summarize(int64(900 * time.Microsecond))
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", st.p50, 500_000}, {"p90", st.p90, 900_000}, {"p99", st.p99, 990_000}} {
		if math.Abs(c.got-c.want)/c.want > 0.01 {
			t.Errorf("%s = %.0f, want %.0f ±1%%", c.name, c.got, c.want)
		}
	}
	if st.mean != 500_500 {
		t.Errorf("mean = %.0f, want 500500 (exact: the histogram keeps the sum)", st.mean)
	}
	if st.samples != 1000 || st.beyondP99 < 5 || st.beyondP99 > 10 {
		t.Errorf("samples=%d beyondP99=%d, want 1000 and 5..10", st.samples, st.beyondP99)
	}
	if st.overSLO < 95 || st.overSLO > 100 {
		t.Errorf("overSLO = %d, want ~100 (the samples above 900 µs, less the limit's bucket)", st.overSLO)
	}
}

func TestWindowedLatencyMedianWindow(t *testing.T) {
	w := newWindowed()
	a, b := &latRecorder{into: w}, &latRecorder{into: w}
	win := int64(tick)
	// Five windows, two receivers each.  Window 2 is a stall: every
	// sample there is 50 ms.  Window 4 has too few samples to count.
	for i := int64(0); i < 4; i++ {
		for v := int64(1); v <= 1000; v++ {
			lat := v * 1000 // 1 µs .. 1 ms
			if i == 2 {
				lat = 50_000_000
			}
			now := i*win + v
			a.add(now, lat)
			b.add(now, lat)
		}
	}
	a.add(4*win, 7)
	a.flush()
	b.flush()
	st := w.summarize(int64(900*time.Microsecond), nil)
	if st.windows != 4 || st.samples != 8001 {
		t.Fatalf("windows=%d samples=%d, want 4 and 8001", st.windows, st.samples)
	}
	if math.Abs(st.p50-500_000)/500_000 > 0.01 || math.Abs(st.p90-900_000)/900_000 > 0.01 {
		t.Errorf("p50=%.0f p90=%.0f: the stalled window moved the median window", st.p50, st.p90)
	}
	if math.Abs(st.p99-50_000_000)/50_000_000 > 0.01 {
		t.Errorf("p99 = %.0f, want the stall's 50 ms: the tail is over the whole phase", st.p99)
	}
	if st.overSLO < 2000 {
		t.Errorf("overSLO = %d, want at least the stall's 2000 samples", st.overSLO)
	}
}

func TestWindowedLatencyQuietWindows(t *testing.T) {
	w := newWindowed()
	r := &latRecorder{into: w}
	win := int64(tick)
	for i := int64(0); i < 3; i++ {
		for v := int64(0); v < 200; v++ {
			r.add(i*win+v, (i+1)*10) // window i: every sample (i+1)·10 ns
		}
	}
	r.flush()
	if st := w.summarize(0, map[int64]bool{2: true}); st.p50 != 30 || st.mean != 30 || st.windows != 1 {
		t.Errorf("quiet {2}: p50=%v windows=%d, want 30 over 1", st.p50, st.windows)
	}
	if st := w.summarize(0, map[int64]bool{7: true}); st.p50 != 20 || st.windows != 3 {
		t.Errorf("no quiet window has samples: p50=%v windows=%d, want 20 over all 3", st.p50, st.windows)
	}
}

func TestKeepQuiet(t *testing.T) {
	keep := keepQuiet([]int64{0, 40, 10, 0, 500})
	want := []bool{true, false, true, true, false} // median steal is 10
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("keepQuiet = %v, want %v", keep, want)
		}
	}
	for _, ok := range keepQuiet([]int64{0, -1, 300}) {
		if !ok {
			t.Fatal("with steal unknown every part must be kept")
		}
	}
	if m := quietMedian([]float64{1, 9, 2, 3, 8}, []int64{0, 40, 10, 0, 500}); m != 2 {
		t.Errorf("quietMedian = %v, want 2 (median of 1, 2, 3)", m)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestReducePhaseMedians(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(ms int, n int64, cpuUs int64) point {
		return point{s: sample{t: t0.Add(time.Duration(ms) * time.Millisecond), cpuNs: cpuUs * 1000}, n: n}
	}
	// Windows of 500 ms moving 500, 1000 (a burst) and 600 items.
	pts := []point{mk(0, 0, 0), mk(500, 500, 500), mk(1000, 1500, 1500), mk(1500, 2100, 2700)}
	ps := reducePhase(pts)
	if ps.windows != 3 || ps.items != 2100 {
		t.Fatalf("windows=%d items=%d", ps.windows, ps.items)
	}
	if ps.rate != 1200 { // median of 1000, 2000, 1200 items/s
		t.Errorf("rate = %v, want 1200", ps.rate)
	}
	if ps.cpuPerItemNs != 1000 { // median of 1000, 1000, 2000 ns
		t.Errorf("cpu/item = %v, want 1000", ps.cpuPerItemNs)
	}
}

func TestReducePhaseSkipsStolenWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	mk := func(win int64, n, stealMs int64) point {
		return point{s: sample{t: t0.Add(time.Duration(win) * tick), win: win, stealMs: stealMs}, n: n}
	}
	// Four windows moving 500, 500, 200 and 600 items; the host stole
	// 300 ms in the third.
	pts := []point{mk(0, 0, 0), mk(1, 500, 0), mk(2, 1000, 0), mk(3, 1200, 300), mk(4, 1800, 300)}
	ps := reducePhase(pts)
	if ps.windows != 4 || len(ps.quiet) != 3 || ps.quiet[2] {
		t.Fatalf("windows=%d quiet=%v, want 4 windows, all but window 2 quiet", ps.windows, ps.quiet)
	}
	if ps.rate != 1000 { // median of 1000, 1000, 1200 items/s
		t.Errorf("rate = %v, want 1000", ps.rate)
	}
}
