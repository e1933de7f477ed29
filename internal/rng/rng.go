// Package rng provides a deterministic, splittable random number source
// and the statistical distributions used by the workload generators and
// placement policies.
//
// All randomness in the repository flows from a single root seed through
// named substreams (see Source.Stream), so every simulation is exactly
// reproducible: the same seed always yields the same event sequence,
// independent of how many other streams were drawn from in between.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference construction by Blackman and Vigna. It is not cryptographic;
// it is fast, well distributed, and deterministic, which is what a
// simulator needs.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// SplitMix64 advances the given state and returns the next value of the
// splitmix64 sequence. It is exported because the hash family in package
// hashx uses the same finalizer to derive independent hash functions.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to a single value. It is a good
// 64-bit mixing function: every input bit affects every output bit.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic pseudo-random source. The zero value is not
// valid; use New or Source.Stream.
type Source struct {
	s [4]uint64

	// spare caches the second variate produced by the polar Box-Muller
	// transform in NormFloat64.
	spare     float64
	haveSpare bool
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams (states are expanded through splitmix64 per Vigna's
// recommendation, so nearby seeds do not correlate).
func New(seed uint64) *Source {
	var src Source
	state := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&state)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[3] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Stream derives an independent substream identified by name. Deriving
// the same name from the same source state always yields the same
// substream, and drawing from one substream does not perturb another,
// which keeps experiments reproducible as code evolves.
func (r *Source) Stream(name string) *Source {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Combine the substream label with the parent state without
	// advancing the parent.
	return New(Mix64(h^r.s[0]) ^ Mix64(r.s[2]+h))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method, which avoids modulo bias.
func (r *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the polar Box-Muller method. A spare value is cached per source.
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}
