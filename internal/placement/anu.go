package placement

import (
	"anurand/internal/anu"
	"anurand/internal/hashx"
)

// StrategyANU is the registered tag of the paper's adaptive non-uniform
// randomization scheme, the default placement strategy.
const StrategyANU = "anu"

func init() {
	Register(StrategyANU, Factory{New: newANU, Decode: decodeANU})
}

// ANU adapts the anu package — tunable map plus feedback controller —
// to the Strategy interface. Its Encode is byte-identical to
// anu.Map.Encode (the "ANU1" magic doubles as the strategy tag), so
// journals, wire frames, and golden fixtures written before the
// placement layer existed decode into this strategy unchanged.
type ANU struct {
	m   *anu.Map
	ctl *anu.Controller
}

func controllerConfig(opts Options) anu.ControllerConfig {
	if opts.Controller == (anu.ControllerConfig{}) {
		return anu.DefaultControllerConfig()
	}
	return opts.Controller
}

func newANU(servers []ServerID, opts Options) (Strategy, error) {
	cfg := controllerConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := anu.New(hashx.NewFamily(opts.HashSeed), servers)
	if err != nil {
		return nil, err
	}
	return &ANU{m: m, ctl: anu.NewController(cfg)}, nil
}

func decodeANU(data []byte, opts Options) (Strategy, error) {
	cfg := controllerConfig(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := anu.Decode(data)
	if err != nil {
		return nil, err
	}
	return &ANU{m: m, ctl: anu.NewController(cfg)}, nil
}

// NewANU builds the ANU strategy directly, for callers that hold a map
// already (the Balancer's Restore path and tests).
func NewANU(m *anu.Map, ctl *anu.Controller) *ANU {
	return &ANU{m: m, ctl: ctl}
}

// Map exposes the underlying placement map (read-only for published
// instances).
func (a *ANU) Map() *anu.Map { return a.m }

// Controller exposes the feedback controller (advisories, round count).
func (a *ANU) Controller() *anu.Controller { return a.ctl }

func (a *ANU) Name() string { return StrategyANU }

func (a *ANU) LookupDigest(d hashx.Digest) (ServerID, int) {
	return a.m.LookupDigest(d)
}

// LookupBatch runs the map's batch kernel (anu.Map.LookupBatch), which
// returns the owners LookupDigest would, key for key.
func (a *ANU) LookupBatch(keys []string, owners []ServerID) int {
	return a.m.LookupBatch(keys, owners)
}

func (a *ANU) Tune(reports []Report) (bool, error) {
	return a.ctl.Tune(a.m, reports)
}

func (a *ANU) AddServer(id ServerID) error    { return a.m.AddServer(id) }
func (a *ANU) RemoveServer(id ServerID) error { return a.m.RemoveServer(id) }
func (a *ANU) Fail(id ServerID) error         { return a.m.Fail(id) }
func (a *ANU) Recover(id ServerID) error      { return a.m.Recover(id) }

func (a *ANU) Servers() []ServerID  { return a.m.Servers() }
func (a *ANU) Has(id ServerID) bool { return a.m.Has(id) }

func (a *ANU) Shares() map[ServerID]float64 {
	total := float64(a.m.TotalMapped())
	out := make(map[ServerID]float64, a.m.K())
	for id, l := range a.m.Lengths() {
		if total == 0 {
			out[id] = 0
		} else {
			out[id] = float64(l) / total
		}
	}
	return out
}

func (a *ANU) Encode() []byte       { return a.m.Encode() }
func (a *ANU) SharedStateSize() int { return a.m.SharedStateSize() }

// CheckInvariants implements Invariants.
func (a *ANU) CheckInvariants() error { return a.m.CheckInvariants() }

// Clone deep-copies the map but shares the controller: the controller's
// EWMA is soft state owned by the writer (the local tuning loop), and
// sharing it is what keeps latency smoothing warm across RCU
// publications, exactly as the pre-placement Balancer behaved.
func (a *ANU) Clone() Strategy {
	return &ANU{m: a.m.Clone(), ctl: a.ctl}
}

// ResetSoftState implements SoftStateResetter: it clears the
// controller's EWMA and advisory counters, as a crashed-and-restarted
// node would.
func (a *ANU) ResetSoftState() { a.ctl.Reset() }

// AdoptState implements StateAdopter: a freshly decoded instance
// inherits the superseded instance's controller (EWMA, advisory
// counters) so a delegate install does not cold-restart smoothing.
func (a *ANU) AdoptState(prev Strategy) {
	if p, ok := prev.(*ANU); ok && p.ctl != nil {
		a.ctl = p.ctl
	}
}
