package anu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"anurand/internal/hashx"
	"anurand/internal/rng"
)

func newTestMap(t *testing.T, k int) *Map {
	t.Helper()
	ids := make([]ServerID, k)
	for i := range ids {
		ids[i] = ServerID(i)
	}
	m, err := New(hashx.NewFamily(42), ids)
	if err != nil {
		t.Fatalf("New(%d servers): %v", k, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("fresh map violates invariants: %v", err)
	}
	return m
}

func TestNewErrors(t *testing.T) {
	fam := hashx.NewFamily(1)
	if _, err := New(fam, nil); err == nil {
		t.Error("New with no servers succeeded")
	}
	if _, err := New(fam, []ServerID{1, 1}); err == nil {
		t.Error("New with duplicate ids succeeded")
	}
	if _, err := New(fam, []ServerID{-3}); err == nil {
		t.Error("New with negative id succeeded")
	}
}

func TestPartitionCountMatchesPaper(t *testing.T) {
	// P = 2^(ceil(lg k)+1): k=1 -> 2, k=2 -> 4, k=3..4 -> 8,
	// k=5..8 -> 16, k=9..16 -> 32.
	cases := map[int]int{1: 2, 2: 4, 3: 8, 4: 8, 5: 16, 8: 16, 9: 32, 16: 32, 17: 64}
	for k, wantP := range cases {
		m := newTestMap(t, k)
		if got := m.Partitions(); got != wantP {
			t.Errorf("k=%d: %d partitions, want %d", k, got, wantP)
		}
	}
}

func TestHalfOccupancyAtStart(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 7, 12, 100} {
		m := newTestMap(t, k)
		if got := m.TotalMapped(); got != Half {
			t.Errorf("k=%d: total mapped %d, want exactly %d", k, got, Half)
		}
	}
}

func TestInitialLengthsEqual(t *testing.T) {
	m := newTestMap(t, 5)
	want := Half / 5
	for _, id := range m.Servers() {
		l := m.Length(id)
		if l != want && l != want+1 {
			t.Errorf("server %d initial length %d, want ~%d", id, l, want)
		}
	}
}

func TestLookupReturnsOwner(t *testing.T) {
	m := newTestMap(t, 5)
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("fileset-%d", i)
		id, probes := m.Lookup(name)
		if id == NoServer {
			t.Fatalf("Lookup(%q) found no server", name)
		}
		if probes < 1 {
			t.Fatalf("Lookup(%q) reported %d probes", name, probes)
		}
		// The returned server must actually own one of the probed
		// offsets (or be the rank fallback, which needs maxProbes).
		if probes < m.maxProbes {
			x := Ticks(m.family.Unit(name, probes-1, uint64(Unit)))
			if got := m.OwnerAt(x); got != id {
				t.Fatalf("Lookup(%q)=%d but probe %d offset is owned by %d", name, id, probes-1, got)
			}
		}
	}
}

func TestLookupDeterministic(t *testing.T) {
	m := newTestMap(t, 5)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("fs/%d", i)
		a, pa := m.Lookup(name)
		b, pb := m.Lookup(name)
		if a != b || pa != pb {
			t.Fatalf("Lookup(%q) not deterministic: (%d,%d) vs (%d,%d)", name, a, pa, b, pb)
		}
	}
}

func TestLookupExpectedProbesAboutTwo(t *testing.T) {
	m := newTestMap(t, 5)
	total := 0
	const n = 20000
	for i := 0; i < n; i++ {
		_, probes := m.Lookup(fmt.Sprintf("fileset-%d", i))
		total += probes
	}
	mean := float64(total) / n
	// Half occupancy: geometric with p=1/2, mean 2.
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("mean probes %.3f, want ~2 under half occupancy", mean)
	}
}

func TestLookupDistributionProportionalToLength(t *testing.T) {
	m := newTestMap(t, 4)
	// Skew the regions 1:2:3:4.
	weights := map[ServerID]float64{0: 1, 1: 2, 2: 3, 3: 4}
	if err := m.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	counts := map[ServerID]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		id, _ := m.Lookup(fmt.Sprintf("f-%d", i))
		counts[id]++
	}
	for id, w := range weights {
		want := w / 10 * n
		got := float64(counts[id])
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Errorf("server %d received %d lookups, want ~%.0f (proportional to region)", id, counts[id], want)
		}
	}
}

func TestLookupEmptyMap(t *testing.T) {
	m := newTestMap(t, 2)
	if err := m.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(1); err != nil {
		t.Fatal(err)
	}
	m.SetMaxProbes(4) // keep the miss chain short for the test
	if id, _ := m.Lookup("anything"); id != NoServer {
		t.Fatalf("Lookup on empty map returned %d, want NoServer", id)
	}
}

func TestLookupSingleProbeBudgetUsesFallback(t *testing.T) {
	m := newTestMap(t, 5)
	m.SetMaxProbes(1)
	counts := map[ServerID]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		id, probes := m.Lookup(fmt.Sprintf("k-%d", i))
		if id == NoServer {
			t.Fatalf("lookup failed with fallback in place")
		}
		if probes != 1 {
			t.Fatalf("probes = %d with budget 1", probes)
		}
		counts[id]++
	}
	// All five servers should still receive load via the fallback.
	for _, id := range m.Servers() {
		if counts[id] == 0 {
			t.Errorf("server %d received nothing under rank fallback", id)
		}
	}
}

func TestOwnerAtBounds(t *testing.T) {
	m := newTestMap(t, 3)
	if got := m.OwnerAt(Unit); got != NoServer {
		t.Errorf("OwnerAt(Unit) = %d, want NoServer", got)
	}
	// Exactly half the measure is owned.
	w := m.Width()
	var owned Ticks
	for p := 0; p < m.Partitions(); p++ {
		start := Ticks(p) * w
		for _, off := range []Ticks{0, w / 2, w - 1} {
			if m.OwnerAt(start+off) != NoServer {
				owned++
			}
		}
	}
	if owned == 0 {
		t.Fatal("no owned sample points found")
	}
}

func TestSegmentsCoverHalfAndAreDisjoint(t *testing.T) {
	m := newTestMap(t, 5)
	segs := m.Segments()
	var total Ticks
	for i, s := range segs {
		if s.End <= s.Start {
			t.Fatalf("segment %d is empty or inverted: %+v", i, s)
		}
		if i > 0 && s.Start < segs[i-1].End {
			t.Fatalf("segments %d and %d overlap", i-1, i)
		}
		total += s.End - s.Start
	}
	if total != Half {
		t.Fatalf("segments cover %d ticks, want %d", total, Half)
	}
}

func TestSegmentsMatchOwnerAt(t *testing.T) {
	m := newTestMap(t, 7)
	for _, s := range m.Segments() {
		for _, x := range []Ticks{s.Start, (s.Start + s.End) / 2, s.End - 1} {
			if got := m.OwnerAt(x); got != s.Owner {
				t.Fatalf("OwnerAt(%d) = %d, segment says %d", x, got, s.Owner)
			}
		}
	}
}

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	m := newTestMap(t, 5)
	c := m.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone violates invariants: %v", err)
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("x-%d", i)
		a, _ := m.Lookup(name)
		b, _ := c.Lookup(name)
		if a != b {
			t.Fatalf("clone lookup differs for %q: %d vs %d", name, a, b)
		}
	}
	// Mutating the clone must not affect the original.
	if err := c.SetWeights(map[ServerID]float64{0: 10, 1: 1, 2: 1, 3: 1, 4: 1}); err != nil {
		t.Fatal(err)
	}
	if MovedMeasure(m, c) == 0 {
		t.Fatal("expected clone to diverge after SetWeights")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

func TestTicksFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tk := TicksOf(f)
		if got := tk.Float(); math.Abs(got-f) > 1e-12 {
			t.Errorf("TicksOf(%g).Float() = %g", f, got)
		}
	}
	if TicksOf(-1) != 0 || TicksOf(2) != Unit {
		t.Error("TicksOf does not clamp")
	}
}

func BenchmarkLookup(b *testing.B) {
	ids := make([]ServerID, 16)
	for i := range ids {
		ids[i] = ServerID(i)
	}
	m, err := New(hashx.NewFamily(1), ids)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("fileset-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(names[i&1023])
	}
}

func BenchmarkSetWeights(b *testing.B) {
	m, err := New(hashx.NewFamily(1), []ServerID{0, 1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	w1 := map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	w2 := map[ServerID]float64{0: 2, 1: 2, 2: 5, 3: 8, 4: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_ = m.SetWeights(w1)
		} else {
			_ = m.SetWeights(w2)
		}
	}
}

// testFamily returns the hash family shared by benchmark helpers.
func testFamily() hashx.Family { return hashx.NewFamily(42) }

func TestRenderShape(t *testing.T) {
	m := newTestMap(t, 3)
	out := m.Render(64)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("Render produced %d lines:\n%s", len(lines), out)
	}
	bar := lines[0]
	if len(bar) != 66 { // 64 cells + brackets
		t.Fatalf("bar width %d, want 66: %q", len(bar), bar)
	}
	// Exactly half the cells are mapped (give or take sampling at cell
	// granularity).
	mapped := 0
	for _, c := range bar[1 : len(bar)-1] {
		if c != '.' {
			mapped++
		}
	}
	if mapped < 24 || mapped > 40 {
		t.Fatalf("mapped cells %d of 64, want ~32 (half occupancy)", mapped)
	}
	if !strings.Contains(lines[2], "k=3") {
		t.Fatalf("summary line missing: %q", lines[2])
	}
	// Tiny widths are clamped, not broken.
	if small := m.Render(1); !strings.Contains(small, "[") {
		t.Fatalf("tiny render broken: %q", small)
	}
}

// TestLoadBoundWithTwoChoices statistically checks the paper's load
// bound claim: with the multiple-choice heuristic, each server's load
// is m/n + O(1) rather than simple hashing's m/n + Theta(lg n / lg lg n).
func TestLoadBoundWithTwoChoices(t *testing.T) {
	const n, m = 16, 1600 // m/n = 100
	ids := make([]ServerID, n)
	for i := range ids {
		ids[i] = ServerID(i)
	}
	mp, err := New(testFamily(), ids)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[ServerID]float64, n)
	for i := 0; i < m; i++ {
		id, _ := mp.LookupD(fmt.Sprintf("fileset/%04d", i), 2, func(s ServerID) float64 { return counts[s] })
		counts[id]++
	}
	for id, c := range counts {
		// m/n = 100; two choices keeps the excess to a few items.
		if c > 100+12 {
			t.Errorf("server %d holds %.0f items, want <= m/n + O(1) = ~112", id, c)
		}
	}
}

// BenchmarkLookupBatch is the batch kernel over the same map as
// BenchmarkLookup, 256 keys per batch. "fixed" cycles the same 256
// names, which the branch predictor partly learns. "distinct" walks
// 65,536 distinct 19-byte volNN/fXXXXXXXX.dat keys in 256-key windows,
// the shape of the repository benchmark's serve-failover workload.
func BenchmarkLookupBatch(b *testing.B) {
	ids := make([]ServerID, 16)
	for i := range ids {
		ids[i] = ServerID(i)
	}
	m, err := New(hashx.NewFamily(1), ids)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	fixed := make([]string, batch)
	for i := range fixed {
		fixed[i] = fmt.Sprintf("fileset-%d", i)
	}
	src := rng.New(1)
	distinct := make([]string, 1<<16)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("vol%02d/f%08x.dat", src.Intn(64), uint32(src.Uint64()))
	}
	owners := make([]ServerID, batch)
	for _, c := range []struct {
		name string
		keys []string
	}{{"fixed", fixed}, {"distinct", distinct}} {
		b.Run(c.name, func(b *testing.B) {
			windows := len(c.keys) / batch
			for i := 0; i < b.N; i++ {
				w := i % windows * batch
				m.LookupBatch(c.keys[w:w+batch], owners)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batch, "ns/key")
		})
	}
}
