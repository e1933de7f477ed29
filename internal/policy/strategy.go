package policy

import (
	"fmt"

	"anurand/internal/hashx"
	"anurand/internal/placement"
	"anurand/internal/workload"
)

// StrategyPlacer adapts any registered placement.Strategy to the
// simulator's Placer interface, so every scheme the networked runtime
// can serve — ANU, the plain chord ring, the bounded-load variant — is
// also measurable under the simulator's closed loop, from one shared
// implementation per scheme.
type StrategyPlacer struct {
	// digests are the file sets' hashx.Prehash digests, borrowed from
	// the KeySet: the simulator calls Place once per request, and the
	// digest is the per-key half of every family hash.
	digests []hashx.Digest
	s       placement.Strategy
	// weighted is whether s is a placement.Reweigher, asserted once
	// here: members carry speeds only to a strategy that takes them, so
	// TuneRound skips its per-round interface assertion for the rest.
	// That assertion's runtime cache is built on a random draw, which
	// would leave a stray allocation in a random run.
	weighted bool
	// members is Retune's scratch view, reused every round.
	members []placement.Member
}

// NewStrategyPlacer builds a Placer for a registered strategy over the
// workload's file sets.
func NewStrategyPlacer(strategy string, fileSets []workload.FileSet, servers []ServerID, opts placement.Options) (*StrategyPlacer, error) {
	if len(fileSets) == 0 {
		return nil, fmt.Errorf("policy: NewStrategyPlacer: no file sets")
	}
	return NewStrategyPlacerKeys(strategy, workload.NewKeySet(fileSets), servers, opts)
}

// NewStrategyPlacerKeys is NewStrategyPlacer over a precomputed KeySet.
func NewStrategyPlacerKeys(strategy string, keys *workload.KeySet, servers []ServerID, opts placement.Options) (*StrategyPlacer, error) {
	if keys.Len() == 0 {
		return nil, fmt.Errorf("policy: NewStrategyPlacer: no file sets")
	}
	s, err := placement.New(strategy, servers, opts)
	if err != nil {
		return nil, fmt.Errorf("policy: NewStrategyPlacer: %w", err)
	}
	_, weighted := s.(placement.Reweigher)
	return &StrategyPlacer{digests: keys.Digests, s: s, weighted: weighted}, nil
}

// Strategy exposes the wrapped strategy for inspection.
func (p *StrategyPlacer) Strategy() placement.Strategy { return p.s }

// Name implements Placer: the strategy's registered tag.
func (p *StrategyPlacer) Name() string { return p.s.Name() }

// Place implements Placer. The file set's digest is precomputed, so a
// placement costs only the strategy's probe chain.
func (p *StrategyPlacer) Place(fs int) ServerID {
	if fs < 0 || fs >= len(p.digests) {
		return NoServer
	}
	id, _ := p.s.LookupDigest(p.digests[fs])
	return id
}

// Retune implements Placer: one placement.TuneRound over the
// snapshot's servers, weighted by speed, and its reports.
func (p *StrategyPlacer) Retune(env *Env) error {
	if err := validateEnv(env, len(p.digests), false); err != nil {
		return err
	}
	p.members = p.members[:0]
	for _, sv := range env.Servers {
		m := placement.Member{ID: sv.ID, Up: sv.Up}
		if p.weighted {
			m.Weight = sv.Speed
		}
		p.members = append(p.members, m)
	}
	if err := placement.TuneRound(p.s, p.members, env.Reports); err != nil {
		return fmt.Errorf("policy: %s retune: %w", p.s.Name(), err)
	}
	return nil
}

// SharedStateSize implements Placer.
func (p *StrategyPlacer) SharedStateSize() int { return p.s.SharedStateSize() }
