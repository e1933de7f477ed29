// Package metrics provides the statistical accumulators the simulation
// reports through: streaming mean/variance summaries (Welford),
// fixed-width time-series windows for the latency-over-time figures, and
// logarithmic latency histograms.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary is a streaming moment accumulator using Welford's algorithm,
// numerically stable for long runs. The zero value is an empty summary.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
	sum      float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// Merge folds another summary into s. The result is as if every
// observation of o had been Added to s (Chan et al. parallel variance).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := float64(s.n + o.n)
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/n
	s.mean += delta * float64(o.n) / n
	s.sum += o.sum
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the observation count.
func (s Summary) N() uint64 { return s.n }

// Mean returns the mean, or 0 for an empty summary.
func (s Summary) Mean() float64 { return s.mean }

// Sum returns the sum of observations.
func (s Summary) Sum() float64 { return s.sum }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 when empty).
func (s Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s Summary) Max() float64 { return s.max }

// Reset empties the summary.
func (s *Summary) Reset() { *s = Summary{} }

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Series accumulates observations into fixed-width time windows,
// producing the per-interval mean curves of Figures 4 and 5.
type Series struct {
	window  float64
	buckets []Summary
}

// NewSeries creates a series with the given positive window width in
// seconds.
func NewSeries(window float64) *Series {
	if window <= 0 || math.IsNaN(window) || math.IsInf(window, 0) {
		panic(fmt.Sprintf("metrics: NewSeries with invalid window %g", window))
	}
	return &Series{window: window}
}

// Window returns the window width.
func (s *Series) Window() float64 { return s.window }

// Add records observation x at time t (t < 0 is clamped to 0).
func (s *Series) Add(t, x float64) {
	if t < 0 {
		t = 0
	}
	idx := int(t / s.window)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, Summary{})
	}
	s.buckets[idx].Add(x)
}

// Len returns the number of windows touched so far.
func (s *Series) Len() int { return len(s.buckets) }

// At returns the summary for window i (empty summary when out of
// range).
func (s *Series) At(i int) Summary {
	if i < 0 || i >= len(s.buckets) {
		return Summary{}
	}
	return s.buckets[i]
}

// Means returns the per-window means up to n windows, padding with NaN
// for windows with no observations so plots show gaps rather than
// zeros.
func (s *Series) Means(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		b := s.At(i)
		if b.N() == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = b.Mean()
		}
	}
	return out
}

// Counts returns per-window observation counts up to n windows.
func (s *Series) Counts(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.At(i).N()
	}
	return out
}

// Histogram is a logarithmic-bucket latency histogram covering
// [Lo, Hi) with Buckets geometric buckets plus underflow and overflow.
type Histogram struct {
	bucketTable // lo, ratio and the bucket edges, shared per geometry
	counts      []uint64
	under       uint64
	over        uint64
	total       uint64
	// maxSeen is the largest finite observation, so tail quantiles that
	// land in the overflow bin can report a real value instead of the
	// top bucket edge.
	maxSeen float64
}

// NewHistogram creates a histogram over [lo, hi) with n geometric
// buckets. Requires 0 < lo < hi and n > 0.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if !(lo > 0) || hi <= lo || n <= 0 {
		panic(fmt.Sprintf("metrics: NewHistogram(%g, %g, %d) invalid", lo, hi, n))
	}
	h := &Histogram{}
	h.bucketTable, h.counts = tableFor(lo, math.Pow(hi/lo, 1/float64(n)), n)
	return h
}

// bucketTable maps an observation to its bucket without a logarithm.
// The bucket of x >= lo is defined by int(log(x/lo) / log(ratio)); the
// table holds that formula's exact edges, found by bisection over
// float64 bit patterns, so Add is a compare walk that agrees with the
// formula on every float64. Edges are kept as bit patterns: for positive
// floats, bit order is numeric order.
type bucketTable struct {
	lo, ratio float64
	// edges[i] is the bits of the smallest float64 in bucket i, for i in
	// [0, n): edges[0] is lo. edges[n] is the smallest value that
	// overflows.
	edges []uint64
	// start[e-expLo] is the bucket of the smallest in-range value whose
	// biased binary exponent is e: the walk for any x with exponent e
	// starts there and moves up at most a binade's worth of buckets.
	start []uint64
	expLo int
}

// tables caches the bucketTable of the first few geometries built:
// histograms are made per simulation run, and a table costs ~64 log
// evaluations per bucket. The array is fixed so that a lookup, and
// NewHistogram as a whole, allocates no more than the counts.
var tables struct {
	sync.Mutex
	n   int
	all [8]bucketTable
}

// tableFor returns the table for a geometry and a zeroed counts slice.
// A table built here shares one allocation with the counts of the
// histogram that built it; later histograms share its edges read-only.
func tableFor(lo, ratio float64, n int) (bucketTable, []uint64) {
	tables.Lock()
	defer tables.Unlock()
	for _, t := range tables.all[:tables.n] {
		if t.lo == lo && t.ratio == ratio && len(t.edges) == n+1 {
			return t, make([]uint64, n)
		}
	}
	t, counts := newBucketTable(lo, ratio, n)
	if tables.n < len(tables.all) {
		tables.all[tables.n] = t
		tables.n++
	}
	return t, counts
}

func newBucketTable(lo, ratio float64, n int) (bucketTable, []uint64) {
	logRatio := math.Log(ratio)
	bucket := func(bits uint64) int {
		q := math.Float64frombits(bits) / lo
		if math.IsInf(q, 1) {
			// int(+Inf) is platform-defined; anything this far above lo
			// overflows.
			return n
		}
		return int(math.Log(q) / logRatio)
	}
	top := math.Float64bits(lo)
	for bucket(top) < n {
		top = math.Float64bits(2 * math.Float64frombits(top))
	}
	expLo := exponent(lo)
	buf := make([]uint64, n+(n+1)+(exponent(math.Float64frombits(top))-expLo+1))
	t := bucketTable{lo: lo, ratio: ratio, edges: buf[n : 2*n+1], start: buf[2*n+1:], expLo: expLo}
	t.edges[0] = math.Float64bits(lo)
	for i := 1; i <= n; i++ {
		// Smallest x with bucket(x) >= i; bucket(edges[i-1]) >= i means
		// bucket i-1 is empty and shares its edge with bucket i.
		a, b := t.edges[i-1], top
		if bucket(a) >= i {
			b = a
		}
		for b-a > 1 {
			m := a + (b-a)/2
			if bucket(m) >= i {
				b = m
			} else {
				a = m
			}
		}
		t.edges[i] = b
	}
	for k := range t.start {
		first := max(t.edges[0], uint64(expLo+k)<<52)
		// The last bucket whose edge is <= first, capped below overflow.
		t.start[k] = uint64(sort.Search(n, func(i int) bool { return t.edges[i+1] > first }))
	}
	return t, buf[:n:n]
}

// index returns the bucket of x >= lo, or n when x overflows (+Inf
// included).
func (t *bucketTable) index(x float64) int {
	n := len(t.edges) - 1
	xb := math.Float64bits(x)
	if xb >= t.edges[n] {
		return n
	}
	i := int(t.start[exponent(x)-t.expLo])
	for xb >= t.edges[i+1] {
		i++
	}
	return i
}

// exponent returns the biased binary exponent of a non-negative x.
func exponent(x float64) int { return int(math.Float64bits(x) >> 52) }

// Add records one observation. NaN observations count into the
// underflow bin — they carry no magnitude. Finite observations track
// the running maximum so Quantile can clamp overflow-bin mass to a real
// value. The bucket is found in the edge table, with no logarithm.
func (h *Histogram) Add(x float64) {
	h.total++
	if math.IsNaN(x) || x < h.lo {
		h.under++
		return
	}
	if x > h.maxSeen && !math.IsInf(x, 1) {
		h.maxSeen = x
	}
	if i := h.index(x); i < len(h.counts) {
		h.counts[i]++
	} else {
		h.over++
	}
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Max returns the largest finite observation (0 when none).
func (h *Histogram) Max() float64 { return h.maxSeen }

// Underflow and Overflow return the out-of-range observation counts
// (NaN observations count as underflow).
func (h *Histogram) Underflow() uint64 { return h.under }
func (h *Histogram) Overflow() uint64  { return h.over }

// Quantile returns an estimate of the q-quantile (q in [0,1]) by
// linear interpolation within the containing bucket. Mass in the
// underflow bin reports the low edge (a lower bound); mass in the
// overflow bin reports the maximum finite observation — returning the
// top bucket edge there would silently understate exactly the tail
// latencies the histogram exists to expose, and the true maximum is
// the tightest +Inf-safe upper bound the histogram tracks.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	edge := h.lo
	for _, c := range h.counts {
		next := edge * h.ratio
		if target <= cum+float64(c) && c > 0 {
			frac := (target - cum) / float64(c)
			return edge + frac*(next-edge)
		}
		cum += float64(c)
		edge = next
	}
	// Target mass lands in the overflow bin (or float rounding walked
	// past the last bucket): clamp to the real maximum when one was
	// seen — only +Inf-only overflow falls back to the top edge.
	if h.maxSeen > 0 {
		return math.Max(h.maxSeen, edge)
	}
	return edge
}

// Buckets returns (lower edge, count) pairs for non-empty buckets.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	edge := h.lo
	for _, c := range h.counts {
		if c > 0 {
			out = append(out, BucketCount{Lo: edge, Count: c})
		}
		edge *= h.ratio
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Lo    float64
	Count uint64
}

// Clone returns an independent copy, so a snapshot (e.g. cluster.Stats)
// can outlive the accumulator it was taken from.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Merge folds another histogram with identical geometry (same lo, hi,
// bucket count) into h; it panics on a geometry mismatch, which is a
// construction bug, not data.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.lo != o.lo || h.ratio != o.ratio || len(h.counts) != len(o.counts) {
		panic(fmt.Sprintf("metrics: Merge of histograms with different geometry (lo %g/%g, buckets %d/%d)",
			h.lo, o.lo, len(h.counts), len(o.counts)))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.total += o.total
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
}

// String formats the tail summary operators care about.
func (h *Histogram) String() string {
	if h == nil || h.total == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%.4g p95=%.4g p99=%.4g p999=%.4g max=%.4g",
		h.total, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Quantile(0.999), h.maxSeen)
}

// Percentile computes the p-th percentile (0-100) of a sample slice by
// sorting a copy — the exact companion to Histogram.Quantile for small
// samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[lo]*(1-frac) + ys[lo+1]*frac
}
