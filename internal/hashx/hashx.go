// Package hashx provides the agreed-upon family of hash functions that
// ANU randomization re-hashes with. The paper requires that every node
// share a family h_0, h_1, h_2, … of independent hash functions over
// file-set names: a name whose h_r offset lands in an unmapped region of
// the unit interval is re-hashed with h_{r+1} until it lands in a mapped
// region (expected two probes under half occupancy).
//
// Each family member is FNV-1a over the key, mixed with a per-round
// tweak derived from the family seed through the splitmix64 finalizer.
// FNV-1a gives a fast, well-distributed 64-bit digest of the name and
// the finalizer decorrelates the rounds, so the probes behave like
// independent uniform draws — the property the half-occupancy analysis
// (miss probability 2^-r after r rounds) relies on.
//
// Because the FNV digest does not depend on the round and the tweak does
// not depend on the key, a lookup's re-hash chain can hash the key once
// (Prehash) and derive every probe from the digest and a precomputed
// tweak table — the contention-free hot path the placement layer uses.
// Both paths produce bit-identical values: placement is an on-the-wire
// agreement between nodes, so h_r(key) can never change.
package hashx

import (
	"math/bits"

	"anurand/internal/rng"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	// tweakRounds is the number of per-round tweaks precomputed at
	// family construction. It matches the placement layer's probe budget
	// (anu.DefaultMaxProbes); later rounds fall back to deriving the
	// tweak on the fly, with identical results.
	tweakRounds = 64

	// tweakStep and tweakSalt derive the round-r tweak as
	// Mix64(seed + r*tweakStep + tweakSalt). These constants are part of
	// the wire agreement; changing them re-places every file set.
	tweakStep = 0x9e3779b97f4a7c15
	tweakSalt = 0x632be59bd9b4e019
)

// Digest is the round-independent part of a family hash: the FNV-1a
// digest of the key. Computing it once and probing with HashDigest or
// UnitDigest avoids re-reading the key on every re-hash round.
type Digest uint64

// Family is a deterministic family of 64-bit hash functions. The zero
// value uses seed zero and is valid (it derives tweaks on demand); all
// nodes of a cluster must construct their Family with the same seed to
// address the same placement. Families built with NewFamily carry a
// precomputed per-round tweak table and are cheap to copy (the table is
// shared, immutable).
type Family struct {
	seed   uint64
	tweaks *[tweakRounds]uint64
}

// NewFamily returns the hash family identified by seed.
func NewFamily(seed uint64) Family {
	t := new([tweakRounds]uint64)
	for r := range t {
		t[r] = deriveTweak(seed, r)
	}
	return Family{seed: seed, tweaks: t}
}

// Seed returns the family's seed.
func (f Family) Seed() uint64 { return f.seed }

// deriveTweak computes the per-round tweak from first principles — the
// slow path the table caches.
func deriveTweak(seed uint64, round int) uint64 {
	return rng.Mix64(seed + uint64(round)*tweakStep + tweakSalt)
}

// Tweak returns the round's tweak, the key-independent half of h_round,
// from the table when available: HashDigest(d, round) equals
// HashTweak(d, f.Tweak(round)). Batch lookups read the tweaks of their
// first rounds once per batch instead of once per key.
func (f Family) Tweak(round int) uint64 {
	if f.tweaks != nil && uint(round) < tweakRounds {
		return f.tweaks[round]
	}
	return deriveTweak(f.seed, round)
}

// Prehash returns the round-independent digest of key, to be combined
// with any round via HashDigest or UnitDigest.
func Prehash(key string) Digest {
	return Digest(fnv(fnvOffset, key))
}

// fnv continues an FNV-1a state h over the bytes of s.
func fnv(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// PrehashBytes is Prehash over a byte slice — bit-identical to Prehash
// on string(b), without materializing the string. Callers that format a
// key into a reusable buffer (the SAN's "fs/seq" striping key) hash it
// allocation-free.
func PrehashBytes(b []byte) Digest {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return Digest(h)
}

// PrehashBatch writes Prehash(keys[i]) into out[i] for every key; out
// must be at least as long as keys. FNV-1a is one serial
// xor-multiply chain per byte, so a single key runs at the multiplier's
// latency. PrehashBatch hashes four keys at a time, byte by byte over
// their common length, so the four independent chains share the
// multiplier's throughput instead; each key's tail then finishes alone.
// The digests are bit-identical to Prehash's.
func PrehashBatch(keys []string, out []Digest) {
	out = out[:len(keys)]
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		k := keys[i : i+4]
		h0, h1, h2, h3, n := fnv4(k[0], k[1], k[2], k[3])
		o := out[i : i+4]
		o[0] = Digest(fnv(h0, k[0][n:]))
		o[1] = Digest(fnv(h1, k[1][n:]))
		o[2] = Digest(fnv(h2, k[2][n:]))
		o[3] = Digest(fnv(h3, k[3][n:]))
	}
	for ; i < len(keys); i++ {
		out[i] = Prehash(keys[i])
	}
}

// fnv4 runs four FNV-1a chains from the offset basis, interleaved byte
// by byte over the four keys' common prefix, and returns the four
// states and the prefix length. It is kept out of line so its loop has
// the registers to itself: inlined into PrehashBatch, the four states
// spill to the stack and every byte pays a store-to-load round trip.
//
//go:noinline
func fnv4(k0, k1, k2, k3 string) (h0, h1, h2, h3 uint64, n int) {
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	n = min(len(k0), len(k1), len(k2), len(k3))
	for j := 0; j < n; j++ {
		h0 = (h0 ^ uint64(k0[j])) * fnvPrime
		h1 = (h1 ^ uint64(k1[j])) * fnvPrime
		h2 = (h2 ^ uint64(k2[j])) * fnvPrime
		h3 = (h3 ^ uint64(k3[j])) * fnvPrime
	}
	return h0, h1, h2, h3, n
}

// Hash returns h_round(key), the round-th member of the family applied
// to key.
func (f Family) Hash(key string, round int) uint64 {
	return f.HashDigest(Prehash(key), round)
}

// HashDigest returns h_round for a key whose digest was computed with
// Prehash. It is bit-identical to Hash on the original key.
func (f Family) HashDigest(d Digest, round int) uint64 {
	return HashTweak(d, f.Tweak(round))
}

// HashTweak returns h_round for a digest and the round's tweak (see
// Tweak). It mixes the tweak with the digest so rounds are decorrelated
// even for similar keys.
func HashTweak(d Digest, tweak uint64) uint64 {
	return rng.Mix64(uint64(d) ^ tweak)
}

// Unit returns h_round(key) mapped onto [0, unit) ticks of a discrete
// unit interval. unit must be a power of two (the interval package uses
// 1<<62); the top bits of the hash are kept, which preserves uniformity.
func (f Family) Unit(key string, round int, unit uint64) uint64 {
	return f.HashDigest(Prehash(key), round) >> unitShift(unit)
}

// UnitDigest is Unit for a pre-hashed key.
func (f Family) UnitDigest(d Digest, round int, unit uint64) uint64 {
	return f.HashDigest(d, round) >> unitShift(unit)
}

// unitShift returns the right-shift that maps a 64-bit hash onto
// [0, unit) for power-of-two unit: 64 - log2(unit).
func unitShift(unit uint64) uint {
	if unit == 0 || unit&(unit-1) != 0 {
		panic("hashx: Unit requires a power-of-two interval size")
	}
	return uint(65 - bits.Len64(unit))
}
