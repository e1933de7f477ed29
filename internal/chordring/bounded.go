package chordring

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"anurand/internal/hashx"
)

// Bounded is the bounded-load variant of the consistent-hash ring, after
// "Consistent Hashing with Bounded Loads" (Mirrokni, Thorup, Zadimoghaddam):
// no bin may carry more than c times the average load, and overflow
// spills forward along the ring. Two adaptations make the idea work in
// this system's information model, where load is only known from the
// per-interval latency/request reports the delegate already collects:
//
//   - Load is measured, not counted: a tuning round computes each node's
//     share of the interval's requests and derives a per-node shed
//     fraction — how much of the node's arc it must give up to get back
//     under the bound.
//   - Shedding is deterministic and stateless at read time: a node with
//     shed fraction s forwards the keys in the first s of its arc
//     (measured from its predecessor's point) to the next live node, so
//     every reader computes the same owner from the same encoded state,
//     with no per-lookup counters.
//
// Failed nodes are skipped entirely: their whole arc falls to the next
// live successor, the standard consistent-hashing failover. A forwarded
// key lands on the next live node regardless of that node's own shed,
// which bounds the walk at one extra hop past the live successor scan.
type Bounded struct {
	ring *Ring
	// failed nodes own nothing; their arcs spill to the next live node.
	failed map[NodeID]bool
	// shed[n] in [0, 1) is the prefix fraction of n's arc forwarded on.
	shed map[NodeID]float64

	// Dense per-ring-index mirrors of the maps above, rebuilt wholesale
	// by reindex on every mutation and never edited in place (so Clone
	// may share them, like the ring's membership). They keep the Owner hot
	// path free of map probes and float multiplies: a lookup is one
	// binary search plus three array reads.
	failedAt []bool
	// shedCutAt[i] is the arc-prefix length (in circle units) member i
	// forwards on; 0 means no shedding. Precomputing it folds the
	// s*float64(arc) conversion out of the read path.
	shedCutAt []point
	// nextLiveAt[i] is the ring index of the first live member strictly
	// after i, or -1 when every member is failed.
	nextLiveAt []int32
}

// NewBounded wraps a ring with the given failure and shed state; members
// not listed start live and shedding nothing. The dense lookup state is
// built once, however many members are listed. The ring is owned by the
// Bounded afterwards.
func NewBounded(ring *Ring, states []NodeState) (*Bounded, error) {
	b := &Bounded{
		ring:   ring,
		failed: make(map[NodeID]bool, len(states)),
		shed:   make(map[NodeID]float64, len(states)),
	}
	if err := b.validate(states); err != nil {
		return nil, err
	}
	b.set(states)
	b.reindex()
	return b, nil
}

// reindex rebuilds the dense fast-path state from the maps and the ring
// order in one O(n) pass. Mutators call it once per change; it allocates
// fresh slices rather than editing, so clones sharing the old ones stay
// consistent.
func (b *Bounded) reindex() {
	n := len(b.ring.ids)
	failedAt := make([]bool, n)
	shedCutAt := make([]point, n)
	nextLiveAt := make([]int32, n)
	last := -1 // the highest live ring index
	for i, id := range b.ring.ids {
		if b.failed[id] {
			failedAt[i] = true
			continue
		}
		last = i
		if s := b.shed[id]; s != 0 && n > 1 {
			pred := (i - 1 + n) % n
			if arc := b.ring.points[i] - b.ring.points[pred]; arc != 0 {
				shedCutAt[i] = point(s * float64(arc))
			}
		}
	}
	if last < 0 {
		for i := range nextLiveAt {
			nextLiveAt[i] = -1
		}
	} else {
		// Walk one lap backwards from the last live member, carrying the
		// nearest live member ahead; the lap ends on last itself, whose
		// next live member is the first one after it (itself when it is
		// the only one).
		next := int32(last)
		for step := 1; step <= n; step++ {
			i := (last - step + n) % n
			nextLiveAt[i] = next
			if !failedAt[i] {
				next = int32(i)
			}
		}
	}
	b.failedAt, b.shedCutAt, b.nextLiveAt = failedAt, shedCutAt, nextLiveAt
}

// Ring exposes the underlying ring (routing experiments build a Router
// from it).
func (b *Bounded) Ring() *Ring { return b.ring }

// Clone returns a deep copy; the copy may be mutated independently. The
// ring's membership and the dense fast-path slices are shared, not
// copied: mutators replace them wholesale, never edit them in place.
func (b *Bounded) Clone() *Bounded {
	return &Bounded{
		ring:       b.ring.Clone(),
		failed:     maps.Clone(b.failed),
		shed:       maps.Clone(b.shed),
		failedAt:   b.failedAt,
		shedCutAt:  b.shedCutAt,
		nextLiveAt: b.nextLiveAt,
	}
}

// NodeState is one member's failure and shed state, the unit of Apply.
type NodeState struct {
	ID     NodeID
	Failed bool
	// Shed is the prefix fraction of the node's arc forwarded on, in
	// [0, 1); it only takes effect while the node is live.
	Shed float64
}

// Apply sets the state of every listed node, then rebuilds the dense
// lookup state once, so a tuning round costs one reindex however many
// members it changes. Every entry is validated before anything changes:
// an error leaves b as it was. A node listed twice takes its last entry.
func (b *Bounded) Apply(states []NodeState) error {
	if err := b.validate(states); err != nil {
		return err
	}
	if len(states) == 0 {
		return nil
	}
	b.set(states)
	b.reindex()
	return nil
}

// validate checks states against the ring. Unknown nodes are an error
// so a typo cannot silently black-hole half the ring.
func (b *Bounded) validate(states []NodeState) error {
	for _, s := range states {
		if _, ok := b.ring.byID[s.ID]; !ok {
			return fmt.Errorf("chordring: unknown node %d", s.ID)
		}
		// A node may shed load, not vanish: failure handles that.
		if math.IsNaN(s.Shed) || s.Shed < 0 || s.Shed >= 1 {
			return fmt.Errorf("chordring: node %d shed fraction %g outside [0, 1)", s.ID, s.Shed)
		}
	}
	return nil
}

// set writes validated states into the maps; the caller reindexes.
func (b *Bounded) set(states []NodeState) {
	for _, s := range states {
		if s.Failed {
			b.failed[s.ID] = true
		} else {
			delete(b.failed, s.ID)
		}
		if s.Shed == 0 {
			delete(b.shed, s.ID)
		} else {
			b.shed[s.ID] = s.Shed
		}
	}
}

// SetFailed marks or clears a node's failure, keeping its shed fraction.
func (b *Bounded) SetFailed(id NodeID, failed bool) error {
	return b.Apply([]NodeState{{ID: id, Failed: failed, Shed: b.shed[id]}})
}

// Failed reports whether a node is marked failed.
func (b *Bounded) Failed(id NodeID) bool { return b.failed[id] }

// Has reports ring membership (failed members included).
func (b *Bounded) Has(id NodeID) bool {
	_, ok := b.ring.byID[id]
	return ok
}

// SetShed sets the fraction of a node's arc forwarded to its live
// successor, keeping its failure state.
func (b *Bounded) SetShed(id NodeID, frac float64) error {
	return b.Apply([]NodeState{{ID: id, Failed: b.failed[id], Shed: frac}})
}

// Shed returns a node's current shed fraction.
func (b *Bounded) Shed(id NodeID) float64 { return b.shed[id] }

// Join adds a node (live, shedding nothing).
func (b *Bounded) Join(id NodeID) error {
	if err := b.ring.Join(id); err != nil {
		return err
	}
	b.reindex()
	return nil
}

// Leave removes a node and drops its failure/shed state.
func (b *Bounded) Leave(id NodeID) error {
	if err := b.ring.Leave(id); err != nil {
		return err
	}
	delete(b.failed, id)
	delete(b.shed, id)
	b.reindex()
	return nil
}

// LiveCount returns the number of non-failed members.
func (b *Bounded) LiveCount() int { return b.ring.N() - len(b.failed) }

// Owner returns the node responsible for key under the bounded-load
// rule, along with the number of ring probes taken (1 for a direct hit,
// +1 per forwarding hop). ok is false only when every node has failed.
func (b *Bounded) Owner(key string) (NodeID, int, bool) {
	return b.ownerAt(b.ring.keyPoint(key))
}

// OwnerDigest is Owner for a key pre-hashed with hashx.Prehash.
func (b *Bounded) OwnerDigest(d hashx.Digest) (NodeID, int, bool) {
	return b.ownerAt(b.ring.keyPointDigest(d))
}

// ownerAt resolves a ring point against the dense fast-path state. It
// is allocation-free: one binary search, then array reads only —
// failure, shed cut and forwarding target were all precomputed by
// reindex.
func (b *Bounded) ownerAt(p point) (NodeID, int, bool) {
	idx := b.ring.successorIndex(p)
	probes := 1
	if b.failedAt[idx] {
		// The successor is down: its whole arc spills to the next live
		// node, which accepts the key unconditionally.
		next := b.nextLiveAt[idx]
		if next < 0 {
			return 0, probes, false
		}
		return b.ring.ids[next], probes + 1, true
	}
	id := b.ring.ids[idx]
	cut := b.shedCutAt[idx]
	if cut == 0 {
		return id, probes, true
	}
	// The owner is live but shedding: keys in the cut prefix of its arc
	// (measured from the predecessor's point) forward to the next live
	// node. Wrapping subtraction keeps the arithmetic exact mod 2^64.
	n := len(b.ring.ids)
	pred := idx - 1
	if pred < 0 {
		pred = n - 1
	}
	offset := p - b.ring.points[pred] // in [1, arc] for keys owned by idx
	if offset > cut {
		return id, probes, true
	}
	next := b.nextLiveAt[idx]
	if next < 0 || int(next) == idx {
		return id, probes, true // nowhere to shed to
	}
	return b.ring.ids[next], probes + 1, true
}

// SharesOf returns each member of b's fraction of the key space under
// the current failure and shed state (live fractions sum to 1; failed
// members report 0). It is the closed form of the Owner walk over the
// same dense state: a failed node's arc goes to its next live successor,
// and a shedding node's prefix goes to the next live node after it. The
// map is keyed by any id type over NodeID's int32, so a caller that
// names members by its own id type fills one map instead of converting
// a second.
func SharesOf[K ~int32](b *Bounded) map[K]float64 {
	ids := b.ring.ids
	n := len(ids)
	out := make(map[K]float64, n)
	for _, id := range ids {
		out[K(id)] = 0
	}
	if b.LiveCount() == 0 {
		return out
	}
	const circle = float64(1<<63) * 2 // 2^64
	for i, id := range ids {
		pred := (i - 1 + n) % n
		var arcF float64
		if n == 1 {
			arcF = 1
		} else {
			arcF = float64(b.ring.points[i]-b.ring.points[pred]) / circle
		}
		// Some member is live, so every nextLiveAt entry is a live index;
		// a live member's entry is itself only when it is the only one.
		next := int(b.nextLiveAt[i])
		if b.failedAt[i] {
			out[K(ids[next])] += arcF
			continue
		}
		s := b.shed[id]
		if s == 0 || next == i {
			out[K(id)] += arcF
			continue
		}
		out[K(id)] += arcF * (1 - s)
		out[K(ids[next])] += arcF * s
	}
	return out
}

// Members returns the member ids in ascending id order (including
// failed members).
func (b *Bounded) Members() []NodeID {
	ids := append([]NodeID(nil), b.ring.ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
