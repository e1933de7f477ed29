package placement

import (
	"encoding/binary"
	"fmt"

	"anurand/internal/hashx"
)

// StrategyWeightedStatic is the registered tag of static weighted
// hashing seeded from known server speeds — the paper's "a-priori
// knowledge" baseline. The unit interval is partitioned proportionally
// to the capacity weights once; keys hash onto it with h_0 and never
// move while their owner is live. The partition covers ALL members
// (boundaries never shift on failure); a key whose owner is down
// re-hashes with h_1, h_2, … until it lands on a live server, so a
// failure moves only the failed server's keys, spread weight-
// proportionally over the survivors.
const StrategyWeightedStatic = "weighted-static"

// staticMaxProbes bounds the re-hash chain under failures before the
// lookup falls back to a direct weighted draw over the live members; it
// matches the hash family's precomputed tweak table.
const staticMaxProbes = 64

func init() {
	Register(StrategyWeightedStatic, Factory{New: newWeightedStatic, Decode: decodeWeightedStatic})
}

// WeightedStatic is the a-priori static strategy. The member table is
// the entire replicated state.
type WeightedStatic struct {
	t    *memberTable
	seed uint64
	fam  hashx.Family
}

func newWeightedStatic(servers []ServerID, opts Options) (Strategy, error) {
	t, err := newMemberTable(servers, opts.Weights)
	if err != nil {
		return nil, fmt.Errorf("weighted-static: %w", err)
	}
	return &WeightedStatic{t: t, seed: opts.HashSeed, fam: hashx.NewFamily(opts.HashSeed)}, nil
}

func (s *WeightedStatic) Name() string { return StrategyWeightedStatic }

// LookupDigest costs one mix plus a binary search per probe, no
// per-byte hashing, no allocation. Probes counts re-hash rounds, exactly
// like the ANU map's probe metric.
func (s *WeightedStatic) LookupDigest(d hashx.Digest) (ServerID, int) {
	for r := 0; r < staticMaxProbes; r++ {
		idx := s.t.ownerAll(s.fam.HashDigest(d, r))
		if !s.t.failed[idx] {
			return s.t.ids[idx], r + 1
		}
	}
	// Pathological live fraction: draw directly over the live members.
	idx, ok := s.t.pickLive(s.fam.HashDigest(d, staticMaxProbes))
	if !ok {
		return NoServer, staticMaxProbes
	}
	return s.t.ids[idx], staticMaxProbes + 1
}

func (s *WeightedStatic) LookupBatch(keys []string, owners []ServerID) int {
	return lookupBatch(s, keys, owners)
}

// Tune applies failure handling only: the scheme is static by design —
// its knowledge arrived a priori through the weights, and the contrast
// with feedback-driven ANU is what the bake-off measures.
func (s *WeightedStatic) Tune(reports []Report) (bool, error) {
	return tuneFailuresOnly(s.t, "weighted-static", reports)
}

func (s *WeightedStatic) AddServer(id ServerID) error    { return s.t.add(id) }
func (s *WeightedStatic) RemoveServer(id ServerID) error { return s.t.remove(id) }
func (s *WeightedStatic) Fail(id ServerID) error         { return s.t.setFailed(id, true) }
func (s *WeightedStatic) Recover(id ServerID) error      { return s.t.setFailed(id, false) }

func (s *WeightedStatic) Servers() []ServerID          { return s.t.servers() }
func (s *WeightedStatic) Has(id ServerID) bool         { return s.t.has(id) }
func (s *WeightedStatic) Shares() map[ServerID]float64 { return s.t.shares() }

// Weights implements Reweigher.
func (s *WeightedStatic) Weights() map[ServerID]float64 { return s.t.weightsMap() }

// SetWeights implements Reweigher: an updated capacity table re-draws
// the static boundaries (keys move proportionally to the change).
func (s *WeightedStatic) SetWeights(weights map[ServerID]float64) error {
	_, err := s.t.setWeights(weights)
	return err
}

// The weighted-static payload inside the tagged container:
//
//	seed uint64
//	member table (see weights.go)
func (s *WeightedStatic) Encode() []byte {
	buf := make([]byte, 0, 12+len(s.t.ids)*memberRecSize)
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = s.t.appendEncoded(buf)
	return EncodeTagged(StrategyWeightedStatic, buf)
}

func (s *WeightedStatic) SharedStateSize() int { return len(s.Encode()) }

// CheckInvariants implements Invariants.
func (s *WeightedStatic) CheckInvariants() error { return s.t.checkInvariants() }

func (s *WeightedStatic) Clone() Strategy {
	return &WeightedStatic{t: s.t.clone(), seed: s.seed, fam: s.fam}
}

func decodeWeightedStatic(data []byte, opts Options, _ Strategy) (Strategy, error) {
	name, payload, err := DecodeTagged(data)
	if err != nil {
		return nil, err
	}
	if name != StrategyWeightedStatic {
		return nil, fmt.Errorf("weighted-static: tag %q, want %q", name, StrategyWeightedStatic)
	}
	if len(payload) < 8 {
		return nil, fmt.Errorf("weighted-static: payload truncated (%d bytes)", len(payload))
	}
	t, rest, err := decodeMemberTable(payload[8:])
	if err != nil {
		return nil, fmt.Errorf("weighted-static: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("weighted-static: %d trailing bytes", len(rest))
	}
	seed := binary.LittleEndian.Uint64(payload)
	return &WeightedStatic{t: t, seed: seed, fam: hashx.NewFamily(seed)}, nil
}
