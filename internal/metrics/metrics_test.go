package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"anurand/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g, want 5", s.Mean())
	}
	if s.StdDev() != 2 {
		t.Fatalf("StdDev = %g, want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %g, want 40", s.Sum())
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 || s.Sum() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	prop := func(seed uint64, split uint8) bool {
		src := rng.New(seed)
		n := 100
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.NormFloat64()*10 + 5
		}
		cut := int(split) % n
		var all, a, b Summary
		for _, x := range xs {
			all.Add(x)
		}
		for _, x := range xs[:cut] {
			a.Add(x)
		}
		for _, x := range xs[cut:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-9 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(b) // merging empty: no-op
	if a.N() != 1 {
		t.Fatal("merge of empty changed summary")
	}
	b.Merge(a) // merging into empty: copy
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestSummaryNumericalStability(t *testing.T) {
	// Large offset, small variance: naive sum-of-squares would
	// catastrophically cancel.
	var s Summary
	const offset = 1e9
	for i := 0; i < 1000; i++ {
		s.Add(offset + float64(i%2)) // values 1e9 and 1e9+1
	}
	if math.Abs(s.Variance()-0.25) > 1e-6 {
		t.Fatalf("Variance = %g, want 0.25 (stability failure)", s.Variance())
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := NewSeries(10)
	s.Add(0, 1)
	s.Add(5, 3)
	s.Add(10, 100)
	s.Add(25, 7)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.At(0).Mean(); got != 2 {
		t.Fatalf("window 0 mean %g, want 2", got)
	}
	if got := s.At(1).Mean(); got != 100 {
		t.Fatalf("window 1 mean %g, want 100", got)
	}
	if got := s.At(2).Mean(); got != 7 {
		t.Fatalf("window 2 mean %g, want 7", got)
	}
}

func TestSeriesMeansPadsWithNaN(t *testing.T) {
	s := NewSeries(10)
	s.Add(0, 5)
	s.Add(25, 9)
	means := s.Means(4)
	if means[0] != 5 || means[2] != 9 {
		t.Fatalf("means %v", means)
	}
	if !math.IsNaN(means[1]) || !math.IsNaN(means[3]) {
		t.Fatalf("empty windows not NaN: %v", means)
	}
	counts := s.Counts(4)
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestSeriesNegativeTimeClamped(t *testing.T) {
	s := NewSeries(1)
	s.Add(-5, 42)
	if got := s.At(0).Mean(); got != 42 {
		t.Fatalf("negative time observation lost: %g", got)
	}
}

func TestSeriesInvalidWindowPanics(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSeries(%g) did not panic", w)
				}
			}()
			NewSeries(w)
		}()
	}
}

func TestHistogramCountsAndQuantiles(t *testing.T) {
	h := NewHistogram(0.001, 1000, 120)
	src := rng.New(1)
	exp := rng.NewExponential(1)
	const n = 200000
	for i := 0; i < n; i++ {
		h.Add(exp.Sample(src))
	}
	if h.Total() != n {
		t.Fatalf("Total = %d, want %d", h.Total(), n)
	}
	// Exponential(1): median = ln 2, p99 = ln 100.
	if med := h.Quantile(0.5); math.Abs(med-math.Ln2)/math.Ln2 > 0.1 {
		t.Errorf("median %g, want ~%g", med, math.Ln2)
	}
	p99 := h.Quantile(0.99)
	want99 := math.Log(100)
	if math.Abs(p99-want99)/want99 > 0.1 {
		t.Errorf("p99 %g, want ~%g", p99, want99)
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(1, 10, 4)
	h.Add(0.5) // under
	h.Add(100) // over
	h.Add(2)
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %g, want lo edge 1", got)
	}
	bs := h.Buckets()
	if len(bs) != 1 || bs[0].Count != 1 {
		t.Fatalf("Buckets = %+v, want one bucket with count 1", bs)
	}
}

// TestHistogramNaNDoesNotPanic is the regression test for the Add
// index bug: NaN fails `x < lo`, and log(NaN) converted to int used to
// produce a huge negative bucket index and panic. NaN now lands in the
// underflow counter and never poisons maxSeen or the quantiles.
func TestHistogramNaNDoesNotPanic(t *testing.T) {
	h := NewHistogram(1, 1000, 30)
	h.Add(math.NaN())
	h.Add(5)
	h.Add(math.NaN())
	if h.Total() != 3 {
		t.Fatalf("Total = %d, want 3", h.Total())
	}
	if h.Underflow() != 2 {
		t.Errorf("Underflow = %d, want 2 (the NaNs)", h.Underflow())
	}
	if max := h.Max(); max != 5 {
		t.Errorf("Max = %g, want 5 (NaN must not poison it)", max)
	}
	if q := h.Quantile(1); math.IsNaN(q) {
		t.Errorf("Quantile(1) = NaN after NaN observations")
	}
}

func TestHistogramInfinityGoesToOverflow(t *testing.T) {
	h := NewHistogram(1, 1000, 30)
	h.Add(math.Inf(1))
	h.Add(7)
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow())
	}
	if max := h.Max(); max != 7 {
		t.Errorf("Max = %g, want 7 (+Inf must not poison it)", max)
	}
	if q := h.Quantile(1); math.IsInf(q, 1) {
		t.Errorf("Quantile(1) = +Inf, want a finite clamp")
	}
}

// TestHistogramOverflowQuantileClampsToMax pins the tail fix: with
// target mass in the overflow bin, Quantile used to return the top
// bucket edge (1000 here), understating the tail by orders of
// magnitude.
func TestHistogramOverflowQuantileClampsToMax(t *testing.T) {
	h := NewHistogram(1, 1000, 30)
	for i := 0; i < 90; i++ {
		h.Add(10)
	}
	for i := 0; i < 10; i++ {
		h.Add(50000) // 10% of mass far beyond hi
	}
	p999 := h.Quantile(0.999)
	if p999 != 50000 {
		t.Errorf("p999 = %g, want 50000 (max observed), not the bucket edge", p999)
	}
	if p50 := h.Quantile(0.5); math.Abs(p50-10)/10 > 0.2 {
		t.Errorf("p50 = %g, want ~10", p50)
	}
}

func TestHistogramCloneIsIndependent(t *testing.T) {
	h := NewHistogram(1, 100, 10)
	h.Add(5)
	c := h.Clone()
	h.Add(5)
	h.Add(7)
	if c.Total() != 1 || h.Total() != 3 {
		t.Fatalf("clone shares state: clone n=%d, orig n=%d", c.Total(), h.Total())
	}
	var nilH *Histogram
	if nilH.Clone() != nil {
		t.Error("Clone of nil histogram not nil")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 1000, 30)
	b := NewHistogram(1, 1000, 30)
	all := NewHistogram(1, 1000, 30)
	src := rng.New(7)
	exp := rng.NewExponential(0.1)
	for i := 0; i < 5000; i++ {
		x := exp.Sample(src)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Total() != all.Total() {
		t.Fatalf("merged total %d, want %d", a.Total(), all.Total())
	}
	if a.Max() != all.Max() {
		t.Errorf("merged max %g, want %g", a.Max(), all.Max())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("merged q%g = %g, want %g", q, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Merge with mismatched geometry did not panic")
		}
	}()
	a.Merge(NewHistogram(1, 1000, 31))
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0.001, 10, 40)
	if got := h.String(); got != "n=0" {
		t.Errorf("empty String = %q", got)
	}
	h.Add(0.5)
	for _, want := range []string{"n=1", "p99=", "max=0.5"} {
		if !strings.Contains(h.String(), want) {
			t.Errorf("String = %q, missing %q", h.String(), want)
		}
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(1, 10, 4)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("quantile of empty histogram not NaN")
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0,...) did not panic")
		}
	}()
	NewHistogram(0, 10, 4)
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %g", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of empty slice not NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
}

// logIndex is the bucket formula Add used before the edge table: -1 for
// underflow, n for overflow. The one deliberate difference: when x/lo
// overflows to +Inf the formula converts +Inf to int, which Go leaves
// platform-defined (amd64 yields a negative index, counted as
// underflow); the table counts such values as overflow.
func logIndex(lo, ratio float64, n int, x float64) int {
	if math.IsNaN(x) || x < lo {
		return -1
	}
	if math.IsInf(x/lo, 1) {
		return n
	}
	idx := int(math.Log(x/lo) / math.Log(ratio))
	if idx >= n || math.IsInf(x, 1) {
		return n
	}
	if idx < 0 {
		return -1
	}
	return idx
}

// TestHistogramTableMatchesLogFormula checks the log-free bucket lookup
// against the logarithm formula it replaces: 2M log-uniform values per
// geometry spanning under- and overflow, plus every float64 within 50
// ulps of every bucket edge.
func TestHistogramTableMatchesLogFormula(t *testing.T) {
	samples := 2_000_000
	if testing.Short() {
		samples = 200_000
	}
	for _, g := range []struct {
		lo, hi float64
		n      int
	}{
		{1e-3, 1e6, 90}, // clustersim latency histograms
		{1e-6, 1e3, 90}, // runtime latency histograms
		{0.001, 1000, 120},
		{1, 10, 4},
		{1, 2, 1},
		{3e-300, 1e300, 37},
	} {
		h := NewHistogram(g.lo, g.hi, g.n)
		check := func(x float64) {
			want := logIndex(h.lo, h.ratio, g.n, x)
			got := -1
			if x >= h.lo {
				got = h.index(x)
			}
			if got != want {
				t.Fatalf("(%g, %g, %d): x=%v (bits %#x) in bucket %d, formula says %d",
					g.lo, g.hi, g.n, x, math.Float64bits(x), got, want)
			}
		}
		src := rng.New(uint64(g.n))
		span := math.Log(g.hi*4) - math.Log(g.lo/4)
		for i := 0; i < samples; i++ {
			check(g.lo / 4 * math.Exp(src.Float64()*span))
		}
		for _, bits := range h.edges {
			if math.IsInf(math.Float64frombits(bits), 1) {
				continue
			}
			for d := uint64(0); d <= 50; d++ {
				check(math.Float64frombits(bits + d))
				check(math.Float64frombits(bits - d))
			}
		}
		check(math.Inf(1))
		check(math.MaxFloat64)

		// A second histogram of the geometry shares the edges, not the
		// counts.
		h2 := NewHistogram(g.lo, g.hi, g.n)
		before := h.counts[0]
		h2.Add(g.lo)
		if h2.counts[0] != 1 || h.counts[0] != before {
			t.Fatalf("(%g, %g, %d): histograms of one geometry share counts", g.lo, g.hi, g.n)
		}
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(1e-6, 1e3, 90)
	xs := make([]float64, 1024)
	src := rng.New(1)
	for i := range xs {
		xs[i] = 1e-7 * math.Exp(src.Float64()*math.Log(1e11))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&1023])
	}
}
