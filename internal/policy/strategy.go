package policy

import (
	"fmt"

	"anurand/internal/anu"
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
	return &StrategyPlacer{digests: keys.Digests, s: s}, nil
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

// Retune implements Placer: one feedback round against the snapshot.
func (p *StrategyPlacer) Retune(env *Env) error {
	if err := validateEnv(env, len(p.digests), false); err != nil {
		return err
	}
	return retuneStrategy(p.s, env)
}

// SharedStateSize implements Placer.
func (p *StrategyPlacer) SharedStateSize() int { return p.s.SharedStateSize() }

// retuneStrategy is the one simulator tuning round every strategy-backed
// placer shares: commission servers the snapshot reports up but the
// strategy does not know, re-admit recovered members, refresh capacity
// weights on weight-aware strategies from the snapshot's server speeds,
// convert down servers to Failed reports, and apply the strategy's own
// feedback step.
func retuneStrategy(s placement.Strategy, env *Env) error {
	shares := s.Shares()
	for _, sv := range env.Servers {
		if !sv.Up {
			continue
		}
		if !s.Has(sv.ID) {
			if err := s.AddServer(sv.ID); err != nil {
				return fmt.Errorf("policy: %s retune: %w", s.Name(), err)
			}
		} else if shares[sv.ID] == 0 {
			if err := s.Recover(sv.ID); err != nil {
				return fmt.Errorf("policy: %s retune: %w", s.Name(), err)
			}
		}
	}
	if rw, ok := s.(placement.Reweigher); ok {
		weights := make(map[placement.ServerID]float64)
		for _, sv := range env.Servers {
			if sv.Speed > 0 && s.Has(sv.ID) {
				weights[sv.ID] = sv.Speed
			}
		}
		if len(weights) > 0 {
			if err := rw.SetWeights(weights); err != nil {
				return fmt.Errorf("policy: %s retune: %w", s.Name(), err)
			}
		}
	}
	reports := append([]anu.Report(nil), env.Reports...)
	for _, sv := range env.Servers {
		if !sv.Up && s.Has(sv.ID) {
			reports = append(reports, anu.Report{Server: sv.ID, Failed: true})
		}
	}
	if _, err := s.Tune(reports); err != nil {
		return fmt.Errorf("policy: %s retune: %w", s.Name(), err)
	}
	return nil
}
