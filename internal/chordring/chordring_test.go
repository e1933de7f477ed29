package chordring

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"anurand/internal/hashx"
	"anurand/internal/rng"
)

func testRing(t *testing.T, n int) *Ring {
	t.Helper()
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	r, err := New(hashx.NewFamily(7), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewErrors(t *testing.T) {
	if _, err := New(hashx.NewFamily(1), nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := New(hashx.NewFamily(1), []NodeID{3, 3}); err == nil {
		t.Error("duplicate node accepted")
	}
}

// TestNodePointGolden pins the node-point formula to its original
// definition, h_0 of the string "node/<id>": ring points decide every
// owner, so a drift here would move keys in every snapshot.
func TestNodePointGolden(t *testing.T) {
	ids := []NodeID{-1, math.MaxInt32, math.MinInt32}
	for id := NodeID(0); id <= 1000; id++ {
		ids = append(ids, id)
	}
	for _, seed := range []uint64{0, 7, 42} {
		family := hashx.NewFamily(seed)
		for _, id := range ids {
			if got, want := nodePoint(family, id), family.Hash(fmt.Sprintf("node/%d", id), 0); got != want {
				t.Fatalf("seed %d: nodePoint(%d) = %#x, want %#x", seed, id, got, want)
			}
		}
	}
}

func TestOwnerDeterministicAndCovering(t *testing.T) {
	r := testRing(t, 16)
	counts := map[NodeID]int{}
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("vp/%d", i)
		a := r.Owner(key)
		b := r.Owner(key)
		if a != b {
			t.Fatalf("Owner(%q) not deterministic", key)
		}
		counts[a]++
	}
	// Every node should own some keys; consistent hashing without
	// virtual nodes is uneven but never empty at 20000 keys / 16 nodes.
	for _, id := range r.Nodes() {
		if counts[id] == 0 {
			t.Errorf("node %d owns no keys", id)
		}
	}
}

func TestRouteAgreesWithOwner(t *testing.T) {
	r := testRing(t, 32)
	rt := NewRouter(r)
	src := rng.New(5)
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key/%d", i)
		from := NodeID(src.Intn(32))
		got, hops, err := rt.Route(from, key)
		if err != nil {
			t.Fatalf("Route(%d, %q): %v", from, key, err)
		}
		if want := r.Owner(key); got != want {
			t.Fatalf("Route(%d, %q) = %d, Owner says %d", from, key, got, want)
		}
		if hops < 0 || hops > r.N() {
			t.Fatalf("hops = %d out of range", hops)
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		r := testRing(t, n)
		rt := NewRouter(r)
		src := rng.New(uint64(n))
		total := 0
		const lookups = 2000
		for i := 0; i < lookups; i++ {
			_, hops, err := rt.Route(NodeID(src.Intn(n)), fmt.Sprintf("k/%d", i))
			if err != nil {
				t.Fatal(err)
			}
			total += hops
		}
		mean := float64(total) / lookups
		bound := float64(r.TheoreticalHops())
		if mean > bound+1 {
			t.Errorf("n=%d: mean hops %.2f exceeds log2(n)=%g + 1", n, mean, bound)
		}
		if n >= 64 && mean < 1 {
			t.Errorf("n=%d: mean hops %.2f implausibly low (fingers too strong?)", n, mean)
		}
	}
}

func TestRouteFromOwnerIsZeroHops(t *testing.T) {
	r := testRing(t, 16)
	rt := NewRouter(r)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("self/%d", i)
		owner := r.Owner(key)
		got, hops, err := rt.Route(owner, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != owner || hops != 0 {
			t.Fatalf("Route from owner: got %d in %d hops, want %d in 0", got, hops, owner)
		}
	}
}

func TestRouteUnknownStart(t *testing.T) {
	rt := NewRouter(testRing(t, 4))
	if _, _, err := rt.Route(99, "x"); err == nil {
		t.Fatal("unknown start accepted")
	}
}

func TestJoinMovesAboutOneNth(t *testing.T) {
	r := testRing(t, 16)
	const keys = 30000
	before := make([]NodeID, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("k/%d", i))
	}
	if err := r.Join(100); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		now := r.Owner(fmt.Sprintf("k/%d", i))
		if now != before[i] {
			if now != NodeID(100) {
				t.Fatalf("key %d moved to %d, not the joining node", i, now)
			}
			moved++
		}
	}
	frac := float64(moved) / keys
	// One node among 17 owns ~1/17 in expectation; allow wide slack for
	// the single-point variance of consistent hashing.
	if frac > 0.35 {
		t.Errorf("join moved %.1f%% of keys (want ~%d%%)", frac*100, 100/17)
	}
	if moved == 0 {
		t.Error("join moved nothing")
	}
}

func TestLeaveFallsToSuccessor(t *testing.T) {
	r := testRing(t, 8)
	const keys = 10000
	before := make([]NodeID, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("k/%d", i))
	}
	victim := r.Nodes()[3]
	if err := r.Leave(victim); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		now := r.Owner(fmt.Sprintf("k/%d", i))
		if before[i] != victim && now != before[i] {
			t.Fatalf("key %d moved from surviving node %d to %d", i, before[i], now)
		}
		if now == victim {
			t.Fatalf("key %d still owned by departed node", i)
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	r := testRing(t, 2)
	if err := r.Leave(99); err == nil {
		t.Error("leave of unknown node accepted")
	}
	if err := r.Leave(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave(1); err == nil {
		t.Error("removed the last node")
	}
}

func TestStateBytesLogarithmic(t *testing.T) {
	s8 := NewRouter(testRing(t, 8)).StateBytes()
	r256 := NewRouter(testRing(t, 256))
	s256 := r256.StateBytes()
	if s256 <= s8 {
		t.Fatalf("state should grow with n: %d vs %d", s8, s256)
	}
	// Growth must be far below linear: n grew 32x, state should grow
	// roughly like log2(256)/log2(8) ~ 2.7x.
	if float64(s256) > 8*float64(s8) {
		t.Fatalf("state grew %0.1fx for 32x nodes — not logarithmic", float64(s256)/float64(s8))
	}
	if r256.MaxFingerEntries() > 2*int(math.Log2(256))+4 {
		t.Fatalf("finger table too large: %d entries", r256.MaxFingerEntries())
	}
}

func TestRingPropertyRouteTotal(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = NodeID(i * 7)
		}
		r, err := New(hashx.NewFamily(seed), nodes)
		if err != nil {
			return false
		}
		rt := NewRouter(r)
		src := rng.New(seed)
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("p/%d/%d", seed, i)
			from := nodes[src.Intn(n)]
			got, hops, err := rt.Route(from, key)
			if err != nil || got != r.Owner(key) || hops > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute256(b *testing.B) {
	nodes := make([]NodeID, 256)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	r, err := New(hashx.NewFamily(1), nodes)
	if err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(r)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key/%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.Route(NodeID(i&255), keys[i&1023]); err != nil {
			b.Fatal(err)
		}
	}
}
