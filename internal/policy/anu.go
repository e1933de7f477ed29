package policy

import (
	"fmt"

	"anurand/internal/anu"
	"anurand/internal/hashx"
	"anurand/internal/placement"
	"anurand/internal/workload"
)

// ANU is the paper's load-management system: placement by adaptive,
// non-uniform randomization over a unit interval, retuned each interval
// by the delegate's latency-feedback controller. It starts with no
// knowledge of server capabilities and converges by observation alone.
//
// The placement logic itself lives in placement.ANU — the same
// implementation the networked runtime serves from — and placing,
// retuning and sizing are StrategyPlacer's, so the simulator measures
// exactly the code that runs in production. This type only adds access
// to the ANU map and controller.
type ANU struct {
	StrategyPlacer
	s *placement.ANU
}

// NewANU builds the policy with an equal-region initial map (the cold
// start of Section 4) and the given controller configuration.
func NewANU(family hashx.Family, fileSets []workload.FileSet, servers []ServerID, cfg anu.ControllerConfig) (*ANU, error) {
	return NewANUKeys(family, workload.NewKeySet(fileSets), servers, cfg)
}

// NewANUKeys is NewANU over a precomputed KeySet: the digest cache is
// borrowed from the key set instead of rebuilt, so a sweep sharing one
// trace hashes each file-set name exactly once across all its cells.
func NewANUKeys(family hashx.Family, keys *workload.KeySet, servers []ServerID, cfg anu.ControllerConfig) (*ANU, error) {
	if keys.Len() == 0 {
		return nil, fmt.Errorf("policy: NewANU: no file sets")
	}
	m, err := anu.New(family, servers)
	if err != nil {
		return nil, fmt.Errorf("policy: NewANU: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("policy: NewANU: %w", err)
	}
	s := placement.NewANU(m, anu.NewController(cfg))
	return &ANU{StrategyPlacer: StrategyPlacer{digests: keys.Digests, s: s}, s: s}, nil
}

// Map exposes the underlying interval map for inspection (examples and
// the experiment harness read region lengths from it).
func (a *ANU) Map() *anu.Map { return a.s.Map() }

// Controller exposes the delegate controller for inspection.
func (a *ANU) Controller() *anu.Controller { return a.s.Controller() }

// Advisories lists servers the controller has flagged as incompetent
// (paper: "identifies such incompetent components and notifies
// administrators").
func (a *ANU) Advisories() []anu.Advisory { return a.s.Controller().Advisories() }
