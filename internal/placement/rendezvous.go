package placement

import (
	"encoding/binary"
	"fmt"
	"math"

	"anurand/internal/hashx"
	"anurand/internal/rng"
)

// StrategyRendezvous is the registered tag of weighted rendezvous
// (highest-random-weight) hashing: every live server scores each key
// and the highest score owns it. Scores are weight-scaled with the
// -w/ln(u) transform, so a server with twice the capacity weight wins
// twice the keys in expectation, and a failure moves only the failed
// server's keys (each key's surviving scores are unchanged — the
// minimal-disruption property HRW is known for).
const StrategyRendezvous = "rendezvous"

func init() {
	Register(StrategyRendezvous, Factory{New: newRendezvous, Decode: decodeRendezvous})
}

// rendezvousSaltStep and rendezvousSaltTweak derive each member's score
// salt as Mix64(seed ^ (id*step + tweak)). Like the hashx tweak
// constants they are part of the wire agreement: changing them re-places
// every key.
const (
	rendezvousSaltStep  = 0x9e3779b97f4a7c15
	rendezvousSaltTweak = 0xd1b54a32d192ed03
)

// Rendezvous is the weighted-HRW strategy. The member table is the
// entire replicated state; per-member salts are derived from the seed
// and rebuilt on membership change, never shipped.
type Rendezvous struct {
	t    *memberTable
	seed uint64
	salt []uint64 // parallel to t.ids
}

func newRendezvous(servers []ServerID, opts Options) (Strategy, error) {
	t, err := newMemberTable(servers, opts.Weights)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: %w", err)
	}
	r := &Rendezvous{t: t, seed: opts.HashSeed}
	r.resalt()
	return r, nil
}

// resalt rebuilds the per-member score salts after a membership change.
func (r *Rendezvous) resalt() {
	r.salt = r.salt[:0]
	for _, id := range r.t.ids {
		r.salt = append(r.salt, rng.Mix64(r.seed^(uint64(id)*rendezvousSaltStep+rendezvousSaltTweak)))
	}
}

func (r *Rendezvous) Name() string { return StrategyRendezvous }

// LookupDigest costs one mix and one log per live member, no per-byte
// hashing, no allocation. Probes counts the live members scored.
func (r *Rendezvous) LookupDigest(d hashx.Digest) (ServerID, int) {
	best := -1
	var bestScore float64
	for _, idx := range r.t.liveIdx {
		h := rng.Mix64(uint64(d) ^ r.salt[idx])
		u := (float64(h>>11) + 0.5) * unitFrac53 // in (0, 1)
		score := -math.Log(u) / r.t.weight[idx]  // minimize: exp-weighted draw
		if best < 0 || score < bestScore {
			best, bestScore = idx, score
		}
	}
	if best < 0 {
		return NoServer, 0
	}
	return r.t.ids[best], len(r.t.liveIdx)
}

func (r *Rendezvous) LookupBatch(keys []string, owners []ServerID) int {
	return lookupBatch(r, keys, owners)
}

// Tune applies failure handling only: a Failed report downs the member,
// a live report from a downed member re-admits it. Rendezvous carries
// a-priori capacity knowledge in its weights and never moves load from
// latency feedback — that contrast with ANU is the point.
func (r *Rendezvous) Tune(reports []Report) (bool, error) {
	return tuneFailuresOnly(r.t, "rendezvous", reports)
}

func (r *Rendezvous) AddServer(id ServerID) error {
	if err := r.t.add(id); err != nil {
		return err
	}
	r.resalt()
	return nil
}

func (r *Rendezvous) RemoveServer(id ServerID) error {
	if err := r.t.remove(id); err != nil {
		return err
	}
	r.resalt()
	return nil
}

func (r *Rendezvous) Fail(id ServerID) error    { return r.t.setFailed(id, true) }
func (r *Rendezvous) Recover(id ServerID) error { return r.t.setFailed(id, false) }

func (r *Rendezvous) Servers() []ServerID          { return r.t.servers() }
func (r *Rendezvous) Has(id ServerID) bool         { return r.t.has(id) }
func (r *Rendezvous) Shares() map[ServerID]float64 { return r.t.shares() }

// Weights implements Reweigher.
func (r *Rendezvous) Weights() map[ServerID]float64 { return r.t.weightsMap() }

// SetWeights implements Reweigher: listed servers take the new weight,
// absent servers keep theirs.
func (r *Rendezvous) SetWeights(weights map[ServerID]float64) error {
	_, err := r.t.setWeights(weights)
	return err
}

// The rendezvous payload inside the tagged container:
//
//	seed uint64
//	member table (see weights.go)
func (r *Rendezvous) Encode() []byte {
	buf := make([]byte, 0, 12+len(r.t.ids)*memberRecSize)
	buf = binary.LittleEndian.AppendUint64(buf, r.seed)
	buf = r.t.appendEncoded(buf)
	return EncodeTagged(StrategyRendezvous, buf)
}

func (r *Rendezvous) SharedStateSize() int { return len(r.Encode()) }

// CheckInvariants implements Invariants.
func (r *Rendezvous) CheckInvariants() error { return r.t.checkInvariants() }

func (r *Rendezvous) Clone() Strategy {
	return &Rendezvous{t: r.t.clone(), seed: r.seed, salt: append([]uint64(nil), r.salt...)}
}

func decodeRendezvous(data []byte, opts Options, _ Strategy) (Strategy, error) {
	name, payload, err := DecodeTagged(data)
	if err != nil {
		return nil, err
	}
	if name != StrategyRendezvous {
		return nil, fmt.Errorf("rendezvous: tag %q, want %q", name, StrategyRendezvous)
	}
	if len(payload) < 8 {
		return nil, fmt.Errorf("rendezvous: payload truncated (%d bytes)", len(payload))
	}
	t, rest, err := decodeMemberTable(payload[8:])
	if err != nil {
		return nil, fmt.Errorf("rendezvous: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("rendezvous: %d trailing bytes", len(rest))
	}
	r := &Rendezvous{t: t, seed: binary.LittleEndian.Uint64(payload)}
	r.resalt()
	return r, nil
}

// tuneFailuresOnly is the shared Tune of the weight-aware strategies
// that take no latency feedback: Failed reports down members, live
// reports re-admit them, unknown members are an error (matching chord).
func tuneFailuresOnly(t *memberTable, name string, reports []Report) (bool, error) {
	changed := false
	for _, rep := range reports {
		i := t.index(rep.Server)
		if i < 0 {
			return changed, fmt.Errorf("%s: Tune: report for unknown server %d", name, rep.Server)
		}
		if rep.Failed != t.failed[i] {
			if err := t.setFailed(rep.Server, rep.Failed); err != nil {
				return changed, err
			}
			changed = true
		}
	}
	return changed, nil
}
