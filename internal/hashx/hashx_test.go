package hashx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anurand/internal/rng"
)

func TestHashDeterministic(t *testing.T) {
	f := NewFamily(7)
	g := NewFamily(7)
	for round := 0; round < 5; round++ {
		for _, key := range []string{"", "a", "fileset-001", "/usr/share/doc"} {
			if f.Hash(key, round) != g.Hash(key, round) {
				t.Fatalf("families with equal seeds disagree on (%q, %d)", key, round)
			}
		}
	}
}

func TestHashRoundsDiffer(t *testing.T) {
	f := NewFamily(3)
	key := "fileset-042"
	seen := map[uint64]int{}
	for round := 0; round < 64; round++ {
		h := f.Hash(key, round)
		if prev, dup := seen[h]; dup {
			t.Fatalf("rounds %d and %d collide for key %q", prev, round, key)
		}
		seen[h] = round
	}
}

func TestHashSeedsDiffer(t *testing.T) {
	a, b := NewFamily(1), NewFamily(2)
	same := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fs-%d", i)
		if a.Hash(key, 0) == b.Hash(key, 0) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("families with different seeds collided on %d/1000 keys", same)
	}
}

func TestHashKeysDiffer(t *testing.T) {
	f := NewFamily(0)
	seen := map[uint64]string{}
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("fileset-%d", i)
		h := f.Hash(key, 0)
		if prev, dup := seen[h]; dup {
			t.Fatalf("64-bit collision between %q and %q (astronomically unlikely if well mixed)", prev, key)
		}
		seen[h] = key
	}
}

func TestUnitRangeAndUniformity(t *testing.T) {
	f := NewFamily(11)
	const unit = uint64(1) << 62
	const buckets = 16
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		u := f.Unit(fmt.Sprintf("key-%d", i), 0, unit)
		if u >= unit {
			t.Fatalf("Unit returned %d >= %d", u, unit)
		}
		counts[u/(unit/buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, expected ~%.0f", i, c, want)
		}
	}
}

func TestUnitPanicsOnNonPowerOfTwo(t *testing.T) {
	const wantMsg = "hashx: Unit requires a power-of-two interval size"
	for _, unit := range []uint64{0, 3, 1000, 1<<62 + 1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Unit(unit=%d) did not panic", unit)
				}
				if msg, ok := r.(string); !ok || msg != wantMsg {
					t.Fatalf("Unit(unit=%d) panic message %q, want %q", unit, r, wantMsg)
				}
			}()
			NewFamily(0).Unit("x", 0, unit)
		}()
	}
}

// refHash is the original, from-first-principles implementation of the
// family (FNV-1a digest, per-round splitmix64 tweak, final mix). The
// production code now routes through a precomputed tweak table and a
// reusable key digest; this reference pins the agreement.
func refHash(seed uint64, key string, round int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	tweak := rng.Mix64(seed + uint64(round)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019)
	return rng.Mix64(h ^ tweak)
}

// refUnit is the original Unit implementation with its shift-search
// loop.
func refUnit(seed uint64, key string, round int, unit uint64) uint64 {
	shift := uint(64)
	for u := unit; u > 1; u >>= 1 {
		shift--
	}
	return refHash(seed, key, round) >> shift
}

// TestHashGoldenEquivalence asserts the tweak-table fast path is
// bit-identical to the reference implementation for seeds {0, 1,
// random} across rounds 0..63 (the precomputed range) and a few rounds
// beyond it (the derive-on-demand fallback). Placement compatibility is
// an on-the-wire invariant: a single differing bit moves file sets
// between servers mid-upgrade.
func TestHashGoldenEquivalence(t *testing.T) {
	randomSeed := rand.Uint64()
	seeds := []uint64{0, 1, randomSeed}
	keys := []string{"", "a", "fileset-001", "/usr/share/doc", "\x00\xff"}
	units := []uint64{1, 2, 1 << 10, 1 << 62, 1 << 63}
	for _, seed := range seeds {
		f := NewFamily(seed)
		for round := 0; round < 70; round++ {
			for _, key := range keys {
				d := Prehash(key)
				want := refHash(seed, key, round)
				if got := f.Hash(key, round); got != want {
					t.Fatalf("seed %#x: Hash(%q, %d) = %#x, want %#x", seed, key, round, got, want)
				}
				if got := f.HashDigest(d, round); got != want {
					t.Fatalf("seed %#x: HashDigest(%q, %d) = %#x, want %#x", seed, key, round, got, want)
				}
				for _, unit := range units {
					wantU := refUnit(seed, key, round, unit)
					if got := f.Unit(key, round, unit); got != wantU {
						t.Fatalf("seed %#x: Unit(%q, %d, %d) = %d, want %d", seed, key, round, unit, got, wantU)
					}
					if got := f.UnitDigest(d, round, unit); got != wantU {
						t.Fatalf("seed %#x: UnitDigest(%q, %d, %d) = %d, want %d", seed, key, round, unit, got, wantU)
					}
				}
			}
		}
	}
}

// TestZeroValueFamilyEquivalence pins the documented contract that the
// zero value Family (no tweak table) behaves exactly like
// NewFamily(0).
func TestZeroValueFamilyEquivalence(t *testing.T) {
	var zero Family
	built := NewFamily(0)
	for round := 0; round < 8; round++ {
		for _, key := range []string{"", "x", "fileset-3141"} {
			if zero.Hash(key, round) != built.Hash(key, round) {
				t.Fatalf("zero-value Family diverges from NewFamily(0) on (%q, %d)", key, round)
			}
		}
	}
}

func TestUnitSmallIntervals(t *testing.T) {
	f := NewFamily(5)
	for _, unit := range []uint64{1, 2, 4, 1 << 10, 1 << 62, 1 << 63} {
		for i := 0; i < 100; i++ {
			if u := f.Unit(fmt.Sprintf("k%d", i), i%4, unit); u >= unit {
				t.Fatalf("Unit(%d) = %d out of range", unit, u)
			}
		}
	}
}

// TestRoundIndependence verifies the property the half-occupancy
// analysis depends on: conditioned on h_0 landing in the lower half,
// h_1 still lands in the lower half about half the time.
func TestRoundIndependence(t *testing.T) {
	f := NewFamily(9)
	const unit = uint64(1) << 62
	half := unit / 2
	lower0, both := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("fs-%d", i)
		if f.Unit(key, 0, unit) < half {
			lower0++
			if f.Unit(key, 1, unit) < half {
				both++
			}
		}
	}
	condProb := float64(both) / float64(lower0)
	if math.Abs(condProb-0.5) > 0.02 {
		t.Fatalf("P(h1 lower | h0 lower) = %.3f, want ~0.5 (rounds correlated)", condProb)
	}
}

func TestHashPropertyStableUnderQuick(t *testing.T) {
	f := NewFamily(123)
	prop := func(key string, round uint8) bool {
		r := int(round % 16)
		return f.Hash(key, r) == f.Hash(key, r)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHash(b *testing.B) {
	f := NewFamily(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = f.Hash("fileset-0123456789", i&3)
	}
	_ = sink
}

// batchLens are the batch lengths the batch paths are checked at: empty,
// around the four-key interleave, and around the usual 64 and 256.
var batchLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257}

// randomKeys returns n keys of unequal lengths, from "" to well past a
// hundred bytes, so every interleaved group ends its common prefix at a
// different key.
func randomKeys(r *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		b := make([]byte, r.Intn(140))
		r.Read(b)
		keys[i] = string(b)
	}
	return keys
}

// TestPrehashBatchGolden holds PrehashBatch to the reference
// implementation on the golden keys, in every order, so each key takes
// every lane of the interleave.
func TestPrehashBatchGolden(t *testing.T) {
	keys := []string{"", "a", "fileset-001", "/usr/share/doc", "\x00\xff"}
	out := make([]Digest, len(keys))
	for rot := range keys {
		batch := append(keys[rot:len(keys):len(keys)], keys[:rot]...)
		PrehashBatch(batch, out)
		for i, key := range batch {
			if got, want := NewFamily(0).HashDigest(out[i], 0), refHash(0, key, 0); got != want {
				t.Fatalf("rotation %d: PrehashBatch digest of %q hashes to %#x, want %#x", rot, key, got, want)
			}
		}
	}
}

// TestPrehashBatchMatchesPrehash pins PrehashBatch to Prehash bit for
// bit on keys of unequal lengths at every batch length, and checks it
// writes nothing past len(keys).
func TestPrehashBatchMatchesPrehash(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	const sentinel = Digest(0x5eed)
	for _, n := range batchLens {
		keys := randomKeys(r, n)
		out := make([]Digest, n+1)
		out[n] = sentinel
		PrehashBatch(keys, out)
		for i, key := range keys {
			if want := Prehash(key); out[i] != want {
				t.Fatalf("n=%d: PrehashBatch[%d] (%d bytes) = %#x, Prehash = %#x", n, i, len(key), out[i], want)
			}
		}
		if out[n] != sentinel {
			t.Fatalf("n=%d: PrehashBatch wrote past the last key", n)
		}
	}
}

func TestPrehashBatchZeroAllocs(t *testing.T) {
	keys := randomKeys(rand.New(rand.NewSource(1)), 257)
	out := make([]Digest, len(keys))
	if n := testing.AllocsPerRun(100, func() { PrehashBatch(keys, out) }); n != 0 {
		t.Fatalf("PrehashBatch allocated %g times per batch, want 0", n)
	}
}

// prehashBenchKeys are 256 keys shaped like the repository benchmark's
// ("vol%02d/f%08x.dat", 19 bytes).
func prehashBenchKeys() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("vol%02d/f%08x.dat", i%64, uint32(i)*2654435761)
	}
	return keys
}

func BenchmarkHashPrehash(b *testing.B) {
	keys := prehashBenchKeys()
	var sink Digest
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			sink ^= Prehash(k)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

func BenchmarkHashPrehashBatch(b *testing.B) {
	keys := prehashBenchKeys()
	out := make([]Digest, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PrehashBatch(keys, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}
