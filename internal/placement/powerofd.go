package placement

import (
	"encoding/binary"
	"fmt"
	"math"

	"anurand/internal/hashx"
)

// StrategyPowerOfD is the registered tag of the power-of-d-choices
// sampler: each key draws d weighted samples from the live members and
// takes the least relatively loaded one (load divided by capacity
// weight, the heterogeneous-cluster form of Mukhopadhyay et al.). The
// load estimate is an EWMA over tuning reports and is part of the
// replicated snapshot, so every node resolves a key against the same
// state and lookups stay deterministic cluster-wide.
const StrategyPowerOfD = "power-of-d"

// powerOfDDamping is the EWMA retention factor of the per-server load
// estimate: new = damping·old + (1−damping)·sample per tuning round.
const powerOfDDamping = 0.5

func init() {
	Register(StrategyPowerOfD, Factory{New: newPowerOfD, Decode: decodePowerOfD})
}

// PowerOfD is the power-of-d-choices strategy. Member table, choice
// count, and load estimates are all replicated state.
type PowerOfD struct {
	t    *memberTable
	seed uint64
	fam  hashx.Family
	d    int
	load []float64 // parallel to t.ids: EWMA request rate, ≥ 0, finite
}

func newPowerOfD(servers []ServerID, opts Options) (Strategy, error) {
	t, err := newMemberTable(servers, opts.Weights)
	if err != nil {
		return nil, fmt.Errorf("power-of-d: %w", err)
	}
	d := opts.Choices
	if d == 0 {
		d = DefaultChoices
	}
	if d < 0 || d > MaxChoices {
		return nil, fmt.Errorf("power-of-d: Choices %d out of range [1, %d]", d, MaxChoices)
	}
	return &PowerOfD{
		t:    t,
		seed: opts.HashSeed,
		fam:  hashx.NewFamily(opts.HashSeed),
		d:    d,
		load: make([]float64, len(t.ids)),
	}, nil
}

func (p *PowerOfD) Name() string { return StrategyPowerOfD }

// LookupDigest makes d weighted draws over the live members and keeps
// the one with the least load per unit weight (ties break toward the
// lower server id so every node agrees). Probes is the number of draws.
func (p *PowerOfD) LookupDigest(d hashx.Digest) (ServerID, int) {
	best := -1
	var bestRel float64
	for r := 0; r < p.d; r++ {
		idx, ok := p.t.pickLive(p.fam.HashDigest(d, r))
		if !ok {
			return NoServer, 0
		}
		rel := p.load[idx] / p.t.weight[idx]
		if best < 0 || rel < bestRel || (rel == bestRel && p.t.ids[idx] < p.t.ids[best]) {
			best, bestRel = idx, rel
		}
	}
	return p.t.ids[best], p.d
}

func (p *PowerOfD) LookupBatch(keys []string, owners []ServerID) int {
	return lookupBatch(p, keys, owners)
}

// Tune folds each report into the load EWMA (sample = the interval's
// request count) and applies failure transitions. A failed member's
// load is zeroed so it re-enters cold when it recovers. Reports for
// unknown members are an error, matching chord.
func (p *PowerOfD) Tune(reports []Report) (bool, error) {
	changed := false
	for _, rep := range reports {
		i := p.t.index(rep.Server)
		if i < 0 {
			return changed, fmt.Errorf("power-of-d: Tune: report for unknown server %d", rep.Server)
		}
		if rep.Failed != p.t.failed[i] {
			if err := p.t.setFailed(rep.Server, rep.Failed); err != nil {
				return changed, err
			}
			changed = true
		}
		if rep.Failed {
			if p.load[i] != 0 {
				p.load[i] = 0
				changed = true
			}
			continue
		}
		next := powerOfDDamping*p.load[i] + (1-powerOfDDamping)*float64(rep.Requests)
		if next != p.load[i] {
			p.load[i] = next
			changed = true
		}
	}
	return changed, nil
}

func (p *PowerOfD) AddServer(id ServerID) error {
	loads := p.loadByID()
	if err := p.t.add(id); err != nil {
		return err
	}
	p.realignLoad(loads) // the newcomer starts at load 0 (cold)
	return nil
}

func (p *PowerOfD) RemoveServer(id ServerID) error {
	loads := p.loadByID()
	if err := p.t.remove(id); err != nil {
		return err
	}
	p.realignLoad(loads)
	return nil
}

// loadByID captures the load estimates keyed by server id so they
// survive the positional shift of a membership change.
func (p *PowerOfD) loadByID() map[ServerID]float64 {
	byID := make(map[ServerID]float64, len(p.load))
	for i, sid := range p.t.ids {
		byID[sid] = p.load[i]
	}
	return byID
}

// realignLoad rebuilds the positional load array against the current
// (post-mutation) id order; ids without a prior estimate start at 0.
func (p *PowerOfD) realignLoad(byID map[ServerID]float64) {
	loads := make([]float64, len(p.t.ids))
	for i, sid := range p.t.ids {
		loads[i] = byID[sid]
	}
	p.load = loads
}

func (p *PowerOfD) Fail(id ServerID) error {
	if err := p.t.setFailed(id, true); err != nil {
		return err
	}
	if i := p.t.index(id); i >= 0 {
		p.load[i] = 0
	}
	return nil
}

func (p *PowerOfD) Recover(id ServerID) error { return p.t.setFailed(id, false) }

func (p *PowerOfD) Servers() []ServerID          { return p.t.servers() }
func (p *PowerOfD) Has(id ServerID) bool         { return p.t.has(id) }
func (p *PowerOfD) Shares() map[ServerID]float64 { return p.t.shares() }

// Weights implements Reweigher.
func (p *PowerOfD) Weights() map[ServerID]float64 { return p.t.weightsMap() }

// SetWeights implements Reweigher.
func (p *PowerOfD) SetWeights(weights map[ServerID]float64) error {
	_, err := p.t.setWeights(weights)
	return err
}

// The power-of-d payload inside the tagged container:
//
//	seed uint64
//	d uint32
//	member table (see weights.go)
//	k × load float64 bits   (aligned to the table's ascending ids)
func (p *PowerOfD) Encode() []byte {
	buf := make([]byte, 0, 16+len(p.t.ids)*(memberRecSize+8))
	buf = binary.LittleEndian.AppendUint64(buf, p.seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.d))
	buf = p.t.appendEncoded(buf)
	for i := range p.t.ids {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.load[i]))
	}
	return EncodeTagged(StrategyPowerOfD, buf)
}

func (p *PowerOfD) SharedStateSize() int { return len(p.Encode()) }

// CheckInvariants implements Invariants.
func (p *PowerOfD) CheckInvariants() error {
	if err := p.t.checkInvariants(); err != nil {
		return err
	}
	if len(p.load) != len(p.t.ids) {
		return fmt.Errorf("power-of-d: %d load entries for %d members", len(p.load), len(p.t.ids))
	}
	for i, l := range p.load {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			return fmt.Errorf("power-of-d: server %d has invalid load %g", p.t.ids[i], l)
		}
		if p.t.failed[i] && l != 0 {
			return fmt.Errorf("power-of-d: failed server %d has nonzero load %g", p.t.ids[i], l)
		}
	}
	if p.d < 1 || p.d > MaxChoices {
		return fmt.Errorf("power-of-d: choices %d out of range [1, %d]", p.d, MaxChoices)
	}
	return nil
}

func (p *PowerOfD) Clone() Strategy {
	return &PowerOfD{
		t:    p.t.clone(),
		seed: p.seed,
		fam:  p.fam,
		d:    p.d,
		load: append([]float64(nil), p.load...),
	}
}

func decodePowerOfD(data []byte, opts Options, _ Strategy) (Strategy, error) {
	name, payload, err := DecodeTagged(data)
	if err != nil {
		return nil, err
	}
	if name != StrategyPowerOfD {
		return nil, fmt.Errorf("power-of-d: tag %q, want %q", name, StrategyPowerOfD)
	}
	if len(payload) < 12 {
		return nil, fmt.Errorf("power-of-d: payload truncated (%d bytes)", len(payload))
	}
	seed := binary.LittleEndian.Uint64(payload)
	d := int(binary.LittleEndian.Uint32(payload[8:]))
	if d < 1 || d > MaxChoices {
		return nil, fmt.Errorf("power-of-d: choices %d out of range [1, %d]", d, MaxChoices)
	}
	t, rest, err := decodeMemberTable(payload[12:])
	if err != nil {
		return nil, fmt.Errorf("power-of-d: %w", err)
	}
	if len(rest) != len(t.ids)*8 {
		return nil, fmt.Errorf("power-of-d: %d bytes of load records for %d members (want %d)", len(rest), len(t.ids), len(t.ids)*8)
	}
	load := make([]float64, len(t.ids))
	for i := range load {
		l := math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			return nil, fmt.Errorf("power-of-d: server %d has invalid load %g", t.ids[i], l)
		}
		if t.failed[i] && l != 0 {
			return nil, fmt.Errorf("power-of-d: failed server %d has nonzero load %g", t.ids[i], l)
		}
		load[i] = l
	}
	return &PowerOfD{t: t, seed: seed, fam: hashx.NewFamily(seed), d: d, load: load}, nil
}
