package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// hist is a log-linear histogram of non-negative int64 samples (ns).
// Values below subBuckets are exact; above, each power of two is split
// into subBuckets equal buckets, so a bucket's width is at most 1/128
// of its lower bound and a reported quantile is within 0.8% of the
// sample it stands for.  Fixed memory, so keeping every sample of a
// 10-second open-loop phase costs no heap growth during the run.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	subBits     = 7
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits) * subBuckets
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subBuckets + int(uint64(v)>>uint(shift)) - subBuckets
}

// bucketRange returns the half-open value range [lo, hi) of bucket i.
func bucketRange(i int) (lo, hi int64) {
	if i < subBuckets {
		return int64(i), int64(i) + 1
	}
	shift := i/subBuckets - 1
	m := int64(i%subBuckets + subBuckets)
	return m << uint(shift), (m + 1) << uint(shift)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1): the ceil(q*n)-th
// smallest sample, placed within its bucket as if the bucket's samples
// were spread evenly over it, and clamped to the largest sample seen.
// (A bucket midpoint would read the same on every run whose quantile
// falls in one bucket.)  It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := bucketRange(i)
			if hi-lo == 1 { // an exact bucket
				return float64(lo)
			}
			v := float64(lo) + float64(hi-lo)*(float64(rank-seen)-0.5)/float64(c)
			return math.Min(v, float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

// beyond counts the samples strictly above the q-quantile's bucket: the
// support a reported percentile has.
func (h *hist) beyond(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for _, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.n - seen
		}
	}
	return 0
}

// countAbove counts samples in buckets that lie wholly above limit.
func (h *hist) countAbove(limit int64) int64 {
	var n int64
	for i := bucketOf(limit) + 1; i < histBuckets; i++ {
		n += h.counts[i]
	}
	return n
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyStats is what a run reports about one latency distribution
// (all in ns).
type latencyStats struct {
	mean, p50, p90, p99 float64
	samples             int64
	beyondP99           int64 // samples above the p99 bucket
	overSLO             int64
	windows             int // windows behind mean, p50 and p90 (0: whole phase)
}

func (h *hist) summarize(slo int64) latencyStats {
	return latencyStats{
		mean:      perItem(float64(h.sum), h.n),
		p50:       h.quantile(0.50),
		p90:       h.quantile(0.90),
		p99:       h.quantile(0.99),
		samples:   h.n,
		beyondP99: h.beyond(0.99),
		overSLO:   h.countAbove(slo),
	}
}

// minWindowSamples is the fewest samples a latency window needs to
// count towards the median window.
const minWindowSamples = 100

// windowed collects latency samples by tick of receive time.  The
// mean, p50 and p90 are reported as the median over quiet windows of
// each window's figure, as rates are, so a stall of the shared host that hits a
// minority of windows does not move them; p99, the SLO count and the
// sample counts stay over the whole phase.
type windowed struct {
	mu   sync.Mutex
	wins map[int64]*hist
}

func newWindowed() *windowed { return &windowed{wins: map[int64]*hist{}} }

// latRecorder is one receiving goroutine's view of a windowed
// collection: it fills a private histogram and merges it in when its
// window ends, so concurrent receivers share nothing per sample.
type latRecorder struct {
	into *windowed
	win  int64
	cur  hist
}

// add records latency v for an item received at now (ns on the
// benchmark's clock).
func (r *latRecorder) add(now, v int64) {
	if w := now / int64(tick); w != r.win {
		r.flush()
		r.win = w
	}
	r.cur.add(v)
}

// flush merges the current window's samples in.
func (r *latRecorder) flush() {
	if r.cur.n == 0 {
		return
	}
	r.into.mu.Lock()
	h := r.into.wins[r.win]
	if h == nil {
		h = new(hist)
		r.into.wins[r.win] = h
	}
	h.merge(&r.cur)
	r.into.mu.Unlock()
	r.cur = hist{}
}

// summarize reduces the windows.  The mean, p50 and p90 are taken over the
// windows in quiet (all of them if quiet is nil or holds none of them).
func (w *windowed) summarize(slo int64, quiet map[int64]bool) latencyStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	someQuiet := false
	for win, h := range w.wins {
		someQuiet = someQuiet || (quiet[win] && h.n >= minWindowSamples)
	}
	var all hist
	var means, p50s, p90s []float64
	for win, h := range w.wins {
		all.merge(h)
		if h.n >= minWindowSamples && (!someQuiet || quiet[win]) {
			means = append(means, perItem(float64(h.sum), h.n))
			p50s = append(p50s, h.quantile(0.50))
			p90s = append(p90s, h.quantile(0.90))
		}
	}
	st := all.summarize(slo)
	if len(p50s) > 0 {
		st.mean, st.p50, st.p90 = median(means), median(p50s), median(p90s)
		st.windows = len(p50s)
	}
	return st
}
