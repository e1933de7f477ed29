// Package chordring implements the Chord-style alternative addressing
// scheme the paper's footnote 1 mentions for virtual-processor systems:
// instead of replicating the full VP-to-server table at every node, the
// address information "could also be implemented in the Chord-style
// ring to avoid replication at the expense of log(n) probes to the data
// structure".
//
// This is a single-process model of that data structure — a consistent-
// hash ring of nodes with successor pointers and finger tables — built
// to quantify the trade-off: per-node state drops from O(V) table
// entries to O(log n) fingers, while each lookup walks O(log n) hops
// instead of one table index. cmd/ablate's vpaddr sweep and the package
// benchmarks measure both sides.
//
// The ring is an addressing substrate, not a placement policy: keys
// (virtual processors, file sets) map to the node whose ring point is
// their successor. Load balance on a bare ring therefore follows the
// node points, which is exactly the weakness the paper's ANU map fixes
// with tunable regions.
//
// A Ring holds only what owner lookups read: the sorted points and ids.
// Finger tables serve routed lookups alone, so they live in a Router
// built from a Ring on demand; the placement strategies, which decode a
// ring on every install, never pay for them.
package chordring

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strconv"

	"anurand/internal/hashx"
)

// NodeID identifies a ring member.
type NodeID int32

// ringBits is the identifier-space width. 64-bit points make collisions
// between distinct nodes negligible.
const ringBits = 64

// point is a position on the 2^64 identifier circle.
type point = uint64

// Ring is a consistent-hash ring. It is a static model: Join and Leave
// rebuild the membership directly rather than running the iterative
// stabilization protocol, which the paper's comparison does not depend
// on. The sorted slices and the id index are replaced wholesale on every
// membership change and never edited in place, so clones and Routers
// share them safely.
type Ring struct {
	family hashx.Family
	// members, sorted by ring point.
	points []point
	ids    []NodeID
	byID   map[NodeID]point
}

// New builds a ring over the given nodes. Node points are derived by
// hashing the node id with the shared family, so every cluster member
// computes the same ring.
func New(family hashx.Family, nodes []NodeID) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("chordring: no nodes")
	}
	byID := make(map[NodeID]point, len(nodes))
	for _, id := range nodes {
		if _, dup := byID[id]; dup {
			return nil, fmt.Errorf("chordring: duplicate node %d", id)
		}
		byID[id] = nodePoint(family, id)
	}
	r := &Ring{family: family}
	r.rebuild(byID)
	return r, nil
}

// nodePoint hashes a node id onto the circle: h_0 of the name
// "node/<id>", formatted into a stack buffer so building a ring does not
// allocate a string per member.
func nodePoint(family hashx.Family, id NodeID) point {
	var buf [16]byte // "node/" plus at most 11 bytes of int32
	name := strconv.AppendInt(append(buf[:0], "node/"...), int64(id), 10)
	return family.HashDigest(hashx.PrehashBytes(name), 0)
}

// rebuild installs byID as the membership and derives fresh sorted
// point and id slices from it.
func (r *Ring) rebuild(byID map[NodeID]point) {
	type member struct {
		p  point
		id NodeID
	}
	ms := make([]member, 0, len(byID))
	for id, p := range byID {
		ms = append(ms, member{p, id})
	}
	slices.SortFunc(ms, func(a, b member) int {
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	points := make([]point, len(ms))
	ids := make([]NodeID, len(ms))
	for i, m := range ms {
		points[i], ids[i] = m.p, m.id
	}
	r.points, r.ids, r.byID = points, ids, byID
}

// successorIndex returns the index of the first member at or after p on
// the circle. The binary search is written out rather than delegated to
// sort.Search: the closure a sort.Search call captures escapes to the
// heap, and this is the one probe every lookup on the ring pays.
func (r *Ring) successorIndex(p point) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0 // wrap
	}
	return lo
}

// N returns the member count.
func (r *Ring) N() int { return len(r.ids) }

// Nodes returns the member ids in ring order.
func (r *Ring) Nodes() []NodeID {
	return append([]NodeID(nil), r.ids...)
}

// Join adds a node. Keys between the new node's predecessor and its
// point move to it (standard consistent hashing: ~1/n of the keys).
func (r *Ring) Join(id NodeID) error {
	if _, dup := r.byID[id]; dup {
		return fmt.Errorf("chordring: node %d already present", id)
	}
	byID := maps.Clone(r.byID)
	byID[id] = nodePoint(r.family, id)
	r.rebuild(byID)
	return nil
}

// Leave removes a node; its keys fall to its successor.
func (r *Ring) Leave(id NodeID) error {
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("chordring: node %d not present", id)
	}
	if len(r.byID) == 1 {
		return fmt.Errorf("chordring: cannot remove the last node")
	}
	byID := maps.Clone(r.byID)
	delete(byID, id)
	r.rebuild(byID)
	return nil
}

// SameMembers reports whether nodes, which must hold no duplicates, are
// exactly the ring's members. A decoder holding the previous ring uses
// it to skip rebuilding one whose membership did not change.
func (r *Ring) SameMembers(nodes []NodeID) bool {
	if len(nodes) != len(r.ids) {
		return false
	}
	for _, id := range nodes {
		if _, ok := r.byID[id]; !ok {
			return false
		}
	}
	return true
}

// Clone returns a copy of the ring that may Join and Leave independently
// of the original. It shares the membership state, which Join and Leave
// replace rather than edit.
func (r *Ring) Clone() *Ring {
	nr := *r
	return &nr
}

// Owner returns the node responsible for key: the successor of the
// key's ring point. This is the O(1) oracle answer; Router.Route walks
// the finger tables the way a distributed lookup would.
func (r *Ring) Owner(key string) NodeID {
	return r.ids[r.successorIndex(r.keyPoint(key))]
}

// OwnerDigest is Owner for a key pre-hashed with hashx.Prehash; only
// the per-round mix remains, so batch callers holding digests skip the
// per-byte hash pass.
func (r *Ring) OwnerDigest(d hashx.Digest) NodeID {
	return r.ids[r.successorIndex(r.keyPointDigest(d))]
}

func (r *Ring) keyPoint(key string) point {
	return r.family.Hash(key, 1)
}

// keyPointDigest maps a precomputed key digest onto the circle. Keys
// use round 1; node points use round 0 (see nodePoint), keeping the two
// populations decorrelated.
func (r *Ring) keyPointDigest(d hashx.Digest) point {
	return r.family.HashDigest(d, 1)
}

// TheoreticalHops returns ceil(log2 n), the expected hop bound.
func (r *Ring) TheoreticalHops() int {
	if len(r.ids) <= 1 {
		return 0
	}
	return bits.Len(uint(len(r.ids) - 1))
}

// Router is the Chord routing state of a ring: one finger table per
// member. It describes the ring as it was when NewRouter ran; after a
// Join or Leave, build a new one.
type Router struct {
	ring *Ring
	// fingers[i] holds node indices for member i's finger table.
	fingers [][]int
}

// NewRouter builds every member's finger table: finger b of node n
// points at successor(n.point + 2^b), with consecutive duplicates
// dropped, so a table holds O(log n) distinct entries.
func NewRouter(ring *Ring) *Router {
	r := ring.Clone()
	fingers := make([][]int, len(r.ids))
	for i := range r.ids {
		table := make([]int, 0, ringBits)
		prev := -1
		for b := 0; b < ringBits; b++ {
			target := r.points[i] + 1<<uint(b) // wraps mod 2^64
			idx := r.successorIndex(target)
			if idx != prev {
				table = append(table, idx)
				prev = idx
			}
		}
		fingers[i] = table
	}
	return &Router{ring: r, fingers: fingers}
}

// Route resolves key starting from the given node, following fingers as
// a distributed Chord lookup would, and returns the owner along with
// the number of hops taken (0 when the start node already owns the
// key). Hops are the paper's "log(n) probes to the data structure".
func (rt *Router) Route(from NodeID, key string) (NodeID, int, error) {
	r := rt.ring
	p, ok := r.byID[from]
	if !ok {
		return 0, 0, fmt.Errorf("chordring: unknown start node %d", from)
	}
	target := r.keyPoint(key)
	cur := r.successorIndex(p)
	// The start node may not own its own point if ids collide; align to
	// the member whose point equals p.
	for r.points[cur] != p {
		cur = (cur + 1) % len(r.points)
	}
	hops := 0
	for hops <= len(r.points) {
		// Does cur own the target? Owner is successor(target): cur owns
		// keys in (pred(cur), cur].
		pred := (cur - 1 + len(r.points)) % len(r.points)
		if inRangeIncl(r.points[pred], r.points[cur], target, len(r.points) == 1) {
			return r.ids[cur], hops, nil
		}
		// Jump along the farthest finger that does not pass the target.
		next := rt.closestPreceding(cur, target)
		if next == cur {
			next = r.successorIndex(r.points[cur] + 1) // fall back to successor
		}
		cur = next
		hops++
	}
	return 0, hops, fmt.Errorf("chordring: routing loop for key %q", key)
}

// closestPreceding returns the finger of cur that most closely precedes
// target without reaching it.
func (rt *Router) closestPreceding(cur int, target point) int {
	points := rt.ring.points
	best := cur
	bestDist := distance(points[cur], target)
	for _, f := range rt.fingers[cur] {
		if f == cur {
			continue
		}
		// A usable finger lies strictly between cur and target.
		d := distance(points[f], target)
		if d < bestDist && d > 0 {
			best = f
			bestDist = d
		}
	}
	return best
}

// distance is the clockwise distance from a to b on the circle.
func distance(a, b point) point { return b - a }

// inRangeIncl reports whether x lies in the clockwise interval (lo, hi]
// on the circle. When single is true (a one-node ring) everything is in
// range.
func inRangeIncl(lo, hi, x point, single bool) bool {
	if single || lo == hi {
		return true
	}
	if lo < hi {
		return x > lo && x <= hi
	}
	return x > lo || x <= hi // interval wraps zero
}

// StateBytes estimates the per-node routing state in bytes: successor +
// fingers, each one (point, id) pair of 12 bytes. Averaged over nodes,
// since finger tables dedupe to distinct entries.
func (rt *Router) StateBytes() int {
	total := 0
	for _, f := range rt.fingers {
		total += (len(f) + 1) * 12
	}
	if len(rt.fingers) == 0 {
		return 0
	}
	return total / len(rt.fingers)
}

// MaxFingerEntries returns the largest finger table on the ring; it is
// O(log n) with high probability.
func (rt *Router) MaxFingerEntries() int {
	max := 0
	for _, f := range rt.fingers {
		if len(f) > max {
			max = len(f)
		}
	}
	return max
}
