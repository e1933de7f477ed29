// Package anu implements adaptive, non-uniform (ANU) randomization, the
// load-placement technique of Wu and Burns (HPDC 2004), derived from the
// SIEVE adaptive hashing strategy of Brinkmann et al.
//
// Workload units (file sets) are hashed onto a discrete unit interval.
// Servers own non-overlapping "mapped regions" of that interval; a file
// set is served by the owner of its hashed offset, and offsets that land
// in unmapped space are re-hashed with the next member of an agreed hash
// family until they land in a mapped region. The geometry obeys three
// invariants from the paper:
//
//   - the interval is divided into P = 2^(ceil(lg k)+1) equal partitions
//     for k servers;
//   - a partition is owned by at most one server, which occupies either
//     the whole partition or a prefix of it, and each server has at most
//     one such prefix-partial partition;
//   - the mapped regions of all servers sum to exactly half of the
//     interval (the half-occupancy invariant), which guarantees a free
//     partition always exists for a recovering or newly added server and
//     bounds the expected number of lookup probes at two.
//
// Load is balanced by scaling the region lengths (see Controller) rather
// than by moving explicit assignments, so the only shared state is the
// region table itself — O(k), versus O(number of virtual processors) for
// virtual-processor schemes.
//
// All interval arithmetic is integer fixed point: the unit interval is
// [0, Unit) ticks with Unit = 1<<62, so partition widths (powers of two)
// and the half-occupancy sum are exact.
package anu

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"

	"anurand/internal/hashx"
)

// Ticks measures positions and lengths on the discrete unit interval.
type Ticks uint64

const (
	// UnitBits is the log2 of the interval resolution.
	UnitBits = 62
	// Unit is the length of the whole unit interval in ticks.
	Unit Ticks = 1 << UnitBits
	// Half is the exact total length of all mapped regions (the
	// half-occupancy invariant).
	Half Ticks = Unit / 2
)

// Float converts a tick count to a fraction of the unit interval.
func (t Ticks) Float() float64 { return float64(t) / float64(Unit) }

// TicksOf converts a fraction of the unit interval to ticks, clamping to
// [0, Unit].
func TicksOf(f float64) Ticks {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return Unit
	}
	return Ticks(f * float64(Unit))
}

// ServerID identifies a server in the map. IDs are assigned by the
// caller and are stable across failure and recovery.
type ServerID int32

// NoServer marks unowned partitions and failed lookups.
const NoServer ServerID = -1

// DefaultMaxProbes bounds the re-hash chain. Under half occupancy each
// probe misses with probability 1/2, so 64 probes fail with probability
// 2^-64; the deterministic rank fallback below makes lookup total anyway.
const DefaultMaxProbes = 64

// partInfo describes one partition of the interval.
type partInfo struct {
	owner ServerID // NoServer when free
	occ   Ticks    // occupied prefix length; == width means fully owned
}

// region is one server's mapped region: whole partitions plus at most
// one prefix-partial partition.
type region struct {
	id         ServerID
	full       []int32 // fully owned partitions, in acquisition order
	partial    int32   // index of the prefix-partial partition, -1 if none
	partialLen Ticks
	length     Ticks // cached total mapped length
}

// Map is the ANU placement map: the assignment of servers to regions of
// the unit interval. It is the system's only replicated state. Map is
// not safe for concurrent mutation; the cluster layer serializes tuning.
type Map struct {
	family    hashx.Family
	partBits  uint
	parts     []partInfo
	regions   map[ServerID]*region
	order     []ServerID // sorted ids, kept for deterministic iteration
	maxProbes int

	// total caches the sum of all region lengths (Half, or 0 when every
	// server has failed). SetLengths maintains it, so the lookup
	// fallback and share reporting never rescan the partitions.
	total Ticks

	// freed buffers the partitions released during the current
	// SetLengths call. Growers claim these "warm" partitions before
	// virgin ones: warm space was already mapped, so re-owning it only
	// moves the shrinker's keys, while mapping virgin space also
	// captures keys that previously re-hashed past it to other servers.
	freed []int32
}

// New creates a map over the given servers with equal-length regions
// (the paper's cold start: with no knowledge of capabilities, servers
// start uniform). The partition count is 2^(ceil(lg k)+1). New returns
// an error if ids is empty or contains duplicates or negative ids.
func New(family hashx.Family, ids []ServerID) (*Map, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("anu: New: no servers")
	}
	m := &Map{
		family:    family,
		partBits:  partitionBits(len(ids)),
		regions:   make(map[ServerID]*region, len(ids)),
		maxProbes: DefaultMaxProbes,
	}
	m.parts = make([]partInfo, 1<<m.partBits)
	for i := range m.parts {
		m.parts[i].owner = NoServer
	}
	for _, id := range ids {
		if id < 0 {
			return nil, fmt.Errorf("anu: New: negative server id %d", id)
		}
		if _, dup := m.regions[id]; dup {
			return nil, fmt.Errorf("anu: New: duplicate server id %d", id)
		}
		m.regions[id] = &region{id: id, partial: -1}
		m.order = append(m.order, id)
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })

	lengths := equalLengths(m.order, Half)
	if err := m.SetLengths(lengths); err != nil {
		return nil, fmt.Errorf("anu: New: initial layout: %w", err)
	}
	return m, nil
}

// partitionBits returns ceil(lg k)+1, so the partition count is
// 2^(ceil(lg k)+1) as the paper prescribes.
func partitionBits(k int) uint {
	lg := bits.Len(uint(k - 1)) // ceil(lg k) for k >= 1
	b := uint(lg) + 1
	if b > UnitBits {
		b = UnitBits
	}
	return b
}

// equalLengths splits total into len(ids) near-equal tick counts that
// sum exactly to total, assigning the remainder one tick at a time in id
// order.
func equalLengths(ids []ServerID, total Ticks) map[ServerID]Ticks {
	k := Ticks(len(ids))
	base := total / k
	rem := total % k
	lengths := make(map[ServerID]Ticks, len(ids))
	for i, id := range ids {
		l := base
		if Ticks(i) < rem {
			l++
		}
		lengths[id] = l
	}
	return lengths
}

// Family returns the hash family the map addresses with.
func (m *Map) Family() hashx.Family { return m.family }

// K returns the number of servers in the map (including zero-length,
// i.e. failed, servers).
func (m *Map) K() int { return len(m.regions) }

// Partitions returns the current partition count P.
func (m *Map) Partitions() int { return len(m.parts) }

// Width returns the partition width in ticks.
func (m *Map) Width() Ticks { return Unit >> m.partBits }

// Servers returns the server ids in ascending order.
func (m *Map) Servers() []ServerID {
	out := make([]ServerID, len(m.order))
	copy(out, m.order)
	return out
}

// Has reports whether id is in the map.
func (m *Map) Has(id ServerID) bool {
	_, ok := m.regions[id]
	return ok
}

// Length returns the mapped-region length of id in ticks (zero if the
// server is absent or failed).
func (m *Map) Length(id ServerID) Ticks {
	r, ok := m.regions[id]
	if !ok {
		return 0
	}
	return r.length
}

// Lengths returns a copy of all region lengths.
func (m *Map) Lengths() map[ServerID]Ticks {
	out := make(map[ServerID]Ticks, len(m.regions))
	for id, r := range m.regions {
		out[id] = r.length
	}
	return out
}

// AllLengths yields every server's region length, in no fixed order,
// without copying them into a map.
func (m *Map) AllLengths() iter.Seq2[ServerID, Ticks] {
	return func(yield func(ServerID, Ticks) bool) {
		for id, r := range m.regions {
			if !yield(id, r.length) {
				return
			}
		}
	}
}

// TotalMapped returns the sum of all region lengths. It equals Half
// whenever at least one server has nonzero length.
func (m *Map) TotalMapped() Ticks { return m.total }

// SetMaxProbes overrides the re-hash probe budget (for ablation).
// Values < 1 are clamped to 1.
func (m *Map) SetMaxProbes(n int) {
	if n < 1 {
		n = 1
	}
	m.maxProbes = n
}

// OwnerAt returns the server owning tick x, or NoServer if x is
// unmapped. Partition widths are powers of two, so the partition index
// and intra-partition offset are a shift and a mask, not a division.
func (m *Map) OwnerAt(x Ticks) ServerID {
	if x >= Unit {
		return NoServer
	}
	shift := UnitBits - m.partBits
	p := &m.parts[x>>shift]
	if p.owner == NoServer {
		return NoServer
	}
	if x&(Ticks(1)<<shift-1) < p.occ {
		return p.owner
	}
	return NoServer
}

// Lookup maps a file-set name to its serving server, returning the
// number of hash probes used (>= 1). The chain h_0, h_1, … is probed
// until an offset lands in a mapped region; after maxProbes misses the
// deterministic rank fallback assigns the name by ranking its first
// offset into the mapped measure, so lookup is total whenever any server
// has nonzero length. If the map is entirely empty, Lookup returns
// (NoServer, probes).
func (m *Map) Lookup(name string) (ServerID, int) {
	return m.LookupDigest(hashx.Prehash(name))
}

// LookupDigest is Lookup for a name pre-hashed with hashx.Prehash —
// the allocation-free hot path for callers that can cache digests
// (batch routers, the simulator's per-request placement). The probe
// chain hashes the digest against the family's precomputed per-round
// tweaks, so each probe is two multiplies and a table read.
func (m *Map) LookupDigest(d hashx.Digest) (ServerID, int) {
	shift := UnitBits - m.partBits
	mask := Ticks(1)<<shift - 1
	var first Ticks
	for r := 0; r < m.maxProbes; r++ {
		// Top UnitBits bits of the 64-bit hash, i.e. Unit()'s mapping
		// onto [0, Unit).
		x := Ticks(m.family.HashDigest(d, r) >> (64 - UnitBits))
		if r == 0 {
			first = x
		}
		p := &m.parts[x>>shift]
		if p.owner != NoServer && x&mask < p.occ {
			return p.owner, r + 1
		}
	}
	return m.rankFallback(first), m.maxProbes
}

const (
	// batchChunk is how many keys LookupBatch prehashes and probes per
	// pass; their digests live in a stack array.
	batchChunk = 8

	// batchProbes (K) is how many probes of the chain LookupBatch
	// computes for every key before looking at any of them. Under half
	// occupancy all K miss with probability 2^-K = 1/16; only those keys
	// take the scalar chain.
	batchProbes = 4
)

// LookupBatch resolves keys[i] into owners[i] for every key and returns
// how many resolved to a server; owners must be at least as long as
// keys. Every owner is bit-identical to LookupDigest(hashx.Prehash(key)).
//
// The scalar chain branches on every probe, and under half occupancy
// that branch is a coin flip the predictor cannot learn. LookupBatch
// instead prehashes keys in chunks of batchChunk (hashx.PrehashBatch),
// computes the first batchProbes probes of every key unconditionally,
// and picks the first hit with conditional moves. A key whose K probes
// all miss is resolved by LookupDigest from round 0, so the probe budget
// and the rank fallback need no rules of their own here.
func (m *Map) LookupBatch(keys []string, owners []ServerID) int {
	if len(owners) < len(keys) {
		panic(fmt.Sprintf("anu: LookupBatch: %d owners for %d keys", len(owners), len(keys)))
	}
	var ds [batchChunk]hashx.Digest
	resolved := 0
	for len(keys) > 0 {
		n := min(len(keys), batchChunk)
		hashx.PrehashBatch(keys[:n], ds[:n])
		resolved += m.lookupDigests(ds[:n], owners[:n])
		keys, owners = keys[n:], owners[n:]
	}
	return resolved
}

// lookupDigests is LookupBatch's kernel over one chunk of at most
// batchChunk digests.
func (m *Map) lookupDigests(ds []hashx.Digest, owners []ServerID) int {
	owners = owners[:len(ds)]
	// scalar marks the keys LookupDigest resolves, bit i for ds[i].
	scalar := uint(1)<<len(ds) - 1
	if m.maxProbes >= batchProbes {
		scalar = m.speculate(ds, owners)
	}
	for ; scalar != 0; scalar &= scalar - 1 {
		i := bits.TrailingZeros(scalar)
		owners[i], _ = m.LookupDigest(ds[i])
	}
	resolved := 0
	for _, id := range owners {
		if id != NoServer {
			resolved++
		}
	}
	return resolved
}

// speculate computes the first batchProbes probes of every digest
// without branching on them and stores each key's first hit in owners.
// It returns the keys with no hit among them, bit i for ds[i]; their
// owners entries are NoServer.
func (m *Map) speculate(ds []hashx.Digest, owners []ServerID) (miss uint) {
	owners = owners[:len(ds)]
	// The tweaks stay in memory, so the loop keeps its registers for
	// the probes.
	var tw [batchProbes]uint64
	for r := range tw {
		tw[r] = m.family.Tweak(r)
	}
	// The & 63 is a no-op that spares the shifts Go's guard for counts
	// of 64 and more.
	shift := (UnitBits - m.partBits) & 63
	mask := Ticks(1)<<shift - 1
	parts := m.parts
	for i, d := range ds {
		// Probe from the last round back to the first, so the first hit
		// is the one selected last.
		id := NoServer
		if o, hit := probe(parts, d, tw[3], shift, mask); hit {
			id = o
		}
		if o, hit := probe(parts, d, tw[2], shift, mask); hit {
			id = o
		}
		if o, hit := probe(parts, d, tw[1], shift, mask); hit {
			id = o
		}
		if o, hit := probe(parts, d, tw[0], shift, mask); hit {
			id = o
		}
		owners[i] = id
		// Server ids are non-negative, so only NoServer sets the sign
		// bit. A free partition (owner NoServer, occ 0) never hits; were
		// it to, its key would still take the scalar chain.
		miss |= uint(uint32(id)>>31) << i
	}
	return miss
}

// probe is one round of the chain for a digest and the round's tweak:
// the owner of the partition its offset falls in, and whether the offset
// lies in the occupied prefix. It reads both fields whatever the answer,
// so the caller can select the owner without a branch.
func probe(parts []partInfo, d hashx.Digest, tweak uint64, shift uint, mask Ticks) (ServerID, bool) {
	// Top UnitBits bits of the round's hash, as in LookupDigest.
	x := Ticks(hashx.HashTweak(d, tweak) >> (64 - UnitBits))
	p := &parts[x>>shift]
	return p.owner, x&mask < p.occ
}

// rankFallback deterministically maps x into the mapped measure: the
// point x/Unit * mapped-total is located within the concatenation of
// occupied prefixes in partition order.
func (m *Map) rankFallback(x Ticks) ServerID {
	total := m.TotalMapped()
	if total == 0 {
		return NoServer
	}
	// target in [0, total): scale x from [0, Unit) using 128-bit math
	// to avoid overflow.
	target := mulShift(x, total)
	var cum Ticks
	for i := range m.parts {
		p := &m.parts[i]
		if p.owner == NoServer || p.occ == 0 {
			continue
		}
		cum += p.occ
		if target < cum {
			return p.owner
		}
	}
	// Rounding at the very top of the range: return the last owner.
	for i := len(m.parts) - 1; i >= 0; i-- {
		if m.parts[i].owner != NoServer && m.parts[i].occ > 0 {
			return m.parts[i].owner
		}
	}
	return NoServer
}

// mulShift computes floor(x * total / Unit) without overflow.
func mulShift(x, total Ticks) Ticks {
	hi, lo := bits.Mul64(uint64(x), uint64(total))
	return Ticks(hi<<(64-UnitBits) | lo>>UnitBits)
}

// Segment is a half-open interval [Start, End) of the unit interval
// owned by one server.
type Segment struct {
	Start, End Ticks
	Owner      ServerID
}

// Segments returns the mapped regions as a sorted list of disjoint
// segments, the geometry view used for state encoding, movement
// accounting and display.
func (m *Map) Segments() []Segment {
	w := m.Width()
	var segs []Segment
	for i := range m.parts {
		p := &m.parts[i]
		if p.owner == NoServer || p.occ == 0 {
			continue
		}
		start := Ticks(i) * w
		segs = append(segs, Segment{Start: start, End: start + p.occ, Owner: p.owner})
	}
	// Merge adjacent segments with the same owner (a full partition
	// followed by the owner's next partition).
	merged := segs[:0]
	for _, s := range segs {
		if n := len(merged); n > 0 && merged[n-1].Owner == s.Owner && merged[n-1].End == s.Start {
			merged[n-1].End = s.End
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// Clone returns a deep copy of the map, used to snapshot state before a
// tuning step for movement accounting.
func (m *Map) Clone() *Map {
	c := &Map{
		family:    m.family,
		partBits:  m.partBits,
		parts:     append([]partInfo(nil), m.parts...),
		regions:   make(map[ServerID]*region, len(m.regions)),
		order:     append([]ServerID(nil), m.order...),
		maxProbes: m.maxProbes,
		total:     m.total,
	}
	for id, r := range m.regions {
		c.regions[id] = &region{
			id:         r.id,
			full:       append([]int32(nil), r.full...),
			partial:    r.partial,
			partialLen: r.partialLen,
			length:     r.length,
		}
	}
	return c
}
