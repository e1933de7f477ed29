package placement

import (
	"encoding/binary"
	"fmt"
	"math"

	"anurand/internal/chordring"
	"anurand/internal/hashx"
)

// StrategyChord is the registered tag of the plain consistent-hash ring
// baseline: owners follow ring arcs, failures spill to the live
// successor, and no load feedback ever moves a boundary. It is the
// "simple randomization" end of the paper's comparison, run on the
// Chord-style substrate.
const StrategyChord = "chord"

// StrategyChordBounded is the registered tag of the bounded-load ring:
// the plain ring plus report-driven shed fractions that cap any node's
// request share at LoadBound times the live-member mean (after
// "Consistent Hashing with Bounded Loads", Mirrokni et al.).
const StrategyChordBounded = "chord-bounded"

func init() {
	Register(StrategyChord, chordFactory(false))
	Register(StrategyChordBounded, chordFactory(true))
}

func chordFactory(bounded bool) Factory {
	return Factory{
		New: func(servers []ServerID, opts Options) (Strategy, error) { return newChord(servers, opts, bounded) },
		Decode: func(data []byte, opts Options, prev Strategy) (Strategy, error) {
			return decodeChord(data, bounded, prev)
		},
	}
}

// shedDamping is the per-round EWMA coefficient on shed fractions: each
// Tune moves a node's shed halfway to its target, so one noisy interval
// cannot flip a large arc back and forth (the ring analogue of the ANU
// controller's MaxStep/MaxShrink clamps).
const shedDamping = 0.5

// maxShed caps how much of its arc a live node may give up, keeping
// every live member addressable (the ring analogue of MinWeight).
const maxShed = 0.5

// shedEpsilon zeroes decaying shed fractions once they stop mattering,
// so an idle cluster converges to the exact plain-ring placement.
const shedEpsilon = 1e-3

// Chord adapts the chordring.Bounded ring to the Strategy interface.
// One implementation serves both registered tags; bounded selects
// whether Tune computes shed fractions or only tracks failures.
type Chord struct {
	b       *chordring.Bounded
	seed    uint64
	bound   float64
	bounded bool
}

func newChord(servers []ServerID, opts Options, bounded bool) (Strategy, error) {
	bound := opts.LoadBound
	if bound == 0 {
		bound = DefaultLoadBound
	}
	if math.IsNaN(bound) || bound <= 1 {
		return nil, fmt.Errorf("chord: load bound %g must exceed 1", bound)
	}
	nodes := make([]chordring.NodeID, len(servers))
	for i, s := range servers {
		nodes[i] = chordring.NodeID(s)
	}
	ring, err := chordring.New(hashx.NewFamily(opts.HashSeed), nodes)
	if err != nil {
		return nil, err
	}
	b, err := chordring.NewBounded(ring, nil)
	if err != nil {
		return nil, err
	}
	return &Chord{b: b, seed: opts.HashSeed, bound: bound, bounded: bounded}, nil
}

// Ring exposes the underlying bounded ring (ablations build a
// chordring.Router over its ring to count routed hops).
func (c *Chord) Ring() *chordring.Bounded { return c.b }

// Bound returns the configured load-bound factor.
func (c *Chord) Bound() float64 { return c.bound }

func (c *Chord) Name() string {
	if c.bounded {
		return StrategyChordBounded
	}
	return StrategyChord
}

// LookupDigest resolves a key on the ring: the ring point comes from the
// precomputed digest's round-1 mix, so a lookup is one multiply-shift
// plus the binary search — no per-byte hashing and no allocation.
func (c *Chord) LookupDigest(d hashx.Digest) (ServerID, int) {
	id, probes, ok := c.b.OwnerDigest(d)
	if !ok {
		return NoServer, probes
	}
	return ServerID(id), probes
}

func (c *Chord) LookupBatch(keys []string, owners []ServerID) int {
	return lookupBatch(c, keys, owners)
}

// Tune applies one feedback round. Failure handling matches the ANU
// controller: a Failed report downs the member, and any live report
// from a downed member re-admits it. Under the bounded variant the
// request counts then drive shed fractions — a node carrying more than
// bound × the live-member mean sheds the excess fraction of its arc
// (damped), and nodes back under the bound decay toward zero shed.
// Latencies are ignored: the ring balances load counts, not response
// times, which is exactly the gap the ANU comparison measures.
//
// Every report is validated before the ring changes, and all of a
// round's changes land in one Apply, so a rejected round leaves the ring
// untouched and an accepted one rebuilds its lookup state once.
func (c *Chord) Tune(reports []Report) (bool, error) {
	for _, r := range reports {
		if !c.b.Has(chordring.NodeID(r.Server)) {
			return false, fmt.Errorf("chord: Tune: report for unknown server %d", r.Server)
		}
	}
	// states holds each reported member's next state, in first-report
	// order; requests holds the request count of its last report.
	states := make([]chordring.NodeState, 0, len(reports))
	requests := make([]uint64, 0, len(reports))
	at := make(map[chordring.NodeID]int, len(reports))
	changed := false
	for _, r := range reports {
		id := chordring.NodeID(r.Server)
		i, seen := at[id]
		if !seen {
			i = len(states)
			at[id] = i
			states = append(states, chordring.NodeState{ID: id, Failed: c.b.Failed(id), Shed: c.b.Shed(id)})
			requests = append(requests, 0)
		}
		requests[i] = r.Requests
		if s := &states[i]; r.Failed != s.Failed {
			s.Failed = r.Failed
			if r.Failed {
				// A downed node sheds nothing; failure handling owns its arc.
				s.Shed = 0
			}
			changed = true
		}
	}
	if c.bounded {
		changed = c.tuneShed(reports, states, requests) || changed
	}
	if !changed {
		return false, nil
	}
	return true, c.b.Apply(states)
}

// tuneShed is the bounded variant's request-share feedback: it moves
// each live reported member's shed in states toward its target and
// reports whether any moved. The fair share is the mean over live
// reports.
func (c *Chord) tuneShed(reports []Report, states []chordring.NodeState, requests []uint64) bool {
	var total float64
	live := 0
	for _, r := range reports {
		if !r.Failed {
			total += float64(r.Requests)
			live++
		}
	}
	if live == 0 || total == 0 {
		return false
	}
	fair := total / float64(live)
	changed := false
	for i := range states {
		s := &states[i]
		if s.Failed {
			continue
		}
		target := 0.0
		if reqs := float64(requests[i]); reqs > c.bound*fair {
			target = 1 - c.bound*fair/reqs
		}
		next := (1-shedDamping)*s.Shed + shedDamping*target
		if next > maxShed {
			next = maxShed
		}
		if next < shedEpsilon {
			next = 0
		}
		if next != s.Shed {
			s.Shed = next
			changed = true
		}
	}
	return changed
}

func (c *Chord) AddServer(id ServerID) error { return c.b.Join(chordring.NodeID(id)) }

func (c *Chord) RemoveServer(id ServerID) error { return c.b.Leave(chordring.NodeID(id)) }

func (c *Chord) Fail(id ServerID) error { return c.b.SetFailed(chordring.NodeID(id), true) }

func (c *Chord) Recover(id ServerID) error { return c.b.SetFailed(chordring.NodeID(id), false) }

func (c *Chord) Servers() []ServerID {
	members := c.b.Members()
	out := make([]ServerID, len(members))
	for i, id := range members {
		out[i] = ServerID(id)
	}
	return out
}

func (c *Chord) Has(id ServerID) bool { return c.b.Has(chordring.NodeID(id)) }

func (c *Chord) Shares() map[ServerID]float64 { return chordring.SharesOf[ServerID](c.b) }

// The chord payload inside the tagged container:
//
//	seed  uint64
//	bound float64 bits
//	k     uint32
//	k × { id int32 | failed uint8 | shed float64 bits }   (ascending id)
func (c *Chord) Encode() []byte {
	members := c.b.Members()
	buf := make([]byte, 0, 20+len(members)*13)
	buf = binary.LittleEndian.AppendUint64(buf, c.seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.bound))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(members)))
	for _, id := range members {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		if c.b.Failed(id) {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.b.Shed(id)))
	}
	return EncodeTagged(c.Name(), buf)
}

func (c *Chord) SharedStateSize() int { return len(c.Encode()) }

// CheckInvariants implements Invariants: the encoded state must
// round-trip, every shed fraction must be valid, and the bound sane.
func (c *Chord) CheckInvariants() error {
	if math.IsNaN(c.bound) || c.bound <= 1 {
		return fmt.Errorf("chord: load bound %g must exceed 1", c.bound)
	}
	for _, id := range c.b.Members() {
		s := c.b.Shed(id)
		if math.IsNaN(s) || s < 0 || s >= 1 {
			return fmt.Errorf("chord: node %d shed fraction %g outside [0, 1)", id, s)
		}
		if c.b.Failed(id) && s != 0 {
			return fmt.Errorf("chord: failed node %d holds shed fraction %g", id, s)
		}
	}
	return nil
}

func (c *Chord) Clone() Strategy {
	return &Chord{b: c.b.Clone(), seed: c.seed, bound: c.bound, bounded: c.bounded}
}

// decodeChord decodes a chord or chord-bounded snapshot. When prev is
// a *Chord whose ring has the snapshot's seed and member ids, the
// result shares that ring (a shallow Ring.Clone; ring membership state
// is replaced, never edited) instead of re-hashing and re-sorting every
// member point. The records are parsed and validated the same either
// way, so the result equals a cold decode.
func decodeChord(data []byte, bounded bool, prev Strategy) (Strategy, error) {
	name, payload, err := DecodeTagged(data)
	if err != nil {
		return nil, err
	}
	want := StrategyChord
	if bounded {
		want = StrategyChordBounded
	}
	if name != want {
		return nil, fmt.Errorf("chord: tag %q, want %q", name, want)
	}
	if len(payload) < 20 {
		return nil, fmt.Errorf("chord: payload truncated (%d bytes)", len(payload))
	}
	seed := binary.LittleEndian.Uint64(payload)
	bound := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
	if math.IsNaN(bound) || bound <= 1 {
		return nil, fmt.Errorf("chord: load bound %g must exceed 1", bound)
	}
	k := int(binary.LittleEndian.Uint32(payload[16:]))
	if k == 0 {
		return nil, fmt.Errorf("chord: no members")
	}
	rest := payload[20:]
	if len(rest) != k*13 {
		return nil, fmt.Errorf("chord: %d bytes of member records for k=%d (want %d)", len(rest), k, k*13)
	}
	// The records are validated as strictly as the weighted member codec
	// validates its own, so an accepted snapshot re-encodes to exactly
	// the same bytes; only members that are failed or shedding become
	// states, applied with the ring's one reindex.
	nodes := make([]chordring.NodeID, k)
	var states []chordring.NodeState
	for i := range nodes {
		rec := rest[i*13:]
		id := chordring.NodeID(binary.LittleEndian.Uint32(rec))
		if i > 0 && nodes[i-1] >= id {
			return nil, fmt.Errorf("chord: member records not in strictly ascending id order")
		}
		nodes[i] = id
		var failed bool
		switch rec[4] {
		case 0:
		case 1:
			failed = true
		default:
			return nil, fmt.Errorf("chord: node %d has invalid failed flag %d", id, rec[4])
		}
		shed := math.Float64frombits(binary.LittleEndian.Uint64(rec[5:]))
		// Signbit rejects -0 too, which would re-encode as +0.
		if math.IsNaN(shed) || math.Signbit(shed) || shed >= 1 {
			return nil, fmt.Errorf("chord: node %d shed fraction %g outside [0, 1)", id, shed)
		}
		if failed && shed != 0 {
			return nil, fmt.Errorf("chord: failed node %d holds shed fraction %g", id, shed)
		}
		if failed || shed != 0 {
			states = append(states, chordring.NodeState{ID: id, Failed: failed, Shed: shed})
		}
	}
	var ring *chordring.Ring
	if p, ok := prev.(*Chord); ok && p.seed == seed && p.b.Ring().SameMembers(nodes) {
		ring = p.b.Ring().Clone()
	} else if ring, err = chordring.New(hashx.NewFamily(seed), nodes); err != nil {
		return nil, err
	}
	b, err := chordring.NewBounded(ring, states)
	if err != nil {
		return nil, err
	}
	return &Chord{b: b, seed: seed, bound: bound, bounded: bounded}, nil
}
