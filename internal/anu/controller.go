package anu

import (
	"fmt"
	"math"
	"sort"
)

// Report is one server's performance sample for a tuning interval, as
// sent to the elected delegate. Latency is the mean response time of the
// Requests completed during the interval; a server that completed
// nothing reports Requests == 0 and its Latency is ignored.
type Report struct {
	Server   ServerID
	Requests uint64
	Latency  float64
	// Failed marks a server known to be down; the controller drives its
	// region to zero regardless of latency.
	Failed bool
}

// ControllerConfig tunes the delegate's feedback rule. The zero value is
// not useful; start from DefaultControllerConfig.
type ControllerConfig struct {
	// Gamma is the feedback exponent: a server's region is scaled by
	// (average/latency)^Gamma. Smaller values damp the response.
	Gamma float64

	// MaxStep clamps the per-round growth multiplier so a single noisy
	// interval cannot swing a region wildly upward (growth risks
	// overloading the grower, so it is damped harder than shrinking).
	MaxStep float64

	// MaxShrink clamps the per-round shrink multiplier to 1/MaxShrink.
	// Shedding an overloaded server is urgent — its queue is already
	// hurting every request it holds — so shrinking may act faster
	// than growth.
	MaxShrink float64

	// DeadBand suppresses scaling entirely when every reporting
	// server's latency is within (1±DeadBand) of the average; this is
	// the hysteresis that stops load movement once the system is
	// balanced (Figure 7's flat tail).
	DeadBand float64

	// MinWeight is the smallest relative weight (fraction of the mean
	// region length) a live server may shrink to. A tiny-but-nonzero
	// floor keeps an overwhelmed server addressable so it can regrow if
	// it ever reports a below-average latency again; zero lets regions
	// vanish entirely.
	MinWeight float64

	// Smoothing is the exponential moving average coefficient applied
	// to reported latencies (0 = use raw reports, 0.5 = half old half
	// new). Smoothing trades convergence speed for stability under the
	// heavy-tailed arrival process.
	Smoothing float64

	// IdleGrowth is the multiplier applied to a live server that
	// completed no requests this interval. Values > 1 let idle servers
	// slowly regain addressable space; 1 leaves them untouched (the
	// paper lets extremely weak servers sit idle).
	IdleGrowth float64
}

// DefaultControllerConfig returns the configuration used by the paper
// reproduction experiments.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Gamma:      0.2,
		MaxStep:    1.4,
		MaxShrink:  1.4,
		DeadBand:   0.20,
		MinWeight:  0.001,
		Smoothing:  0.3,
		IdleGrowth: 1.0,
	}
}

// Validate reports the first nonsensical parameter.
func (c ControllerConfig) Validate() error {
	switch {
	case !(c.Gamma > 0) || c.Gamma > 4:
		return fmt.Errorf("anu: controller Gamma %g outside (0, 4]", c.Gamma)
	case !(c.MaxStep > 1):
		return fmt.Errorf("anu: controller MaxStep %g must exceed 1", c.MaxStep)
	case !(c.MaxShrink > 1):
		return fmt.Errorf("anu: controller MaxShrink %g must exceed 1", c.MaxShrink)
	case c.DeadBand < 0 || c.DeadBand >= 1:
		return fmt.Errorf("anu: controller DeadBand %g outside [0, 1)", c.DeadBand)
	case c.MinWeight < 0 || c.MinWeight >= 1:
		return fmt.Errorf("anu: controller MinWeight %g outside [0, 1)", c.MinWeight)
	case c.Smoothing < 0 || c.Smoothing >= 1:
		return fmt.Errorf("anu: controller Smoothing %g outside [0, 1)", c.Smoothing)
	case !(c.IdleGrowth >= 1) || c.IdleGrowth > 4:
		return fmt.Errorf("anu: controller IdleGrowth %g outside [1, 4]", c.IdleGrowth)
	}
	return nil
}

// Advisory flags a server the delegate considers incompetent for the
// current cluster: its region has been pinned at the minimum-weight
// floor (or zero) for several consecutive rounds while other servers
// carry the load. The paper: "ANU randomization identifies such
// incompetent components and notifies administrators."
type Advisory struct {
	Server ServerID
	// Rounds is how many consecutive tuning rounds the server has spent
	// at the floor.
	Rounds int
}

// Controller implements the delegate's region-scaling rule: it examines
// the latencies reported for an interval, computes the request-weighted
// system average, and scales each server's mapped region down if it ran
// above average and up if below, within damping limits.
//
// The controller is deliberately stateless in the paper's sense: a new
// delegate elected after a failure reconstructs identical behaviour from
// the same reports. The only memory is the optional latency EWMA, which
// is an optimization, not correctness state — Reset clears it.
type Controller struct {
	cfg     ControllerConfig
	ewma    map[ServerID]float64
	rounds  uint64
	atFloor map[ServerID]int
}

// NewController returns a Controller with the given configuration,
// panicking on an invalid one (configuration is programmer input).
func NewController(cfg ControllerConfig) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Controller{
		cfg:     cfg,
		ewma:    make(map[ServerID]float64),
		atFloor: make(map[ServerID]int),
	}
}

// Config returns the controller's configuration.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Rounds returns how many tuning rounds have been applied.
func (c *Controller) Rounds() uint64 { return c.rounds }

// advisoryRounds is how many consecutive floor rounds mark a server
// incompetent.
const advisoryRounds = 5

// Advisories lists the servers currently considered incompetent: live
// members whose regions have sat at (or below) the minimum-weight floor
// for at least advisoryRounds consecutive tuning rounds. The cluster
// operator decides whether to decommission them.
func (c *Controller) Advisories() []Advisory {
	var out []Advisory
	for id, n := range c.atFloor {
		if n >= advisoryRounds {
			out = append(out, Advisory{Server: id, Rounds: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// trackFloor updates the consecutive-floor counters after a tuning
// round. mean is the mean region length of live servers.
func (c *Controller) trackFloor(m *Map) {
	live := 0
	var total Ticks
	for _, id := range m.Servers() {
		if l := m.Length(id); l > 0 {
			live++
			total += l
		}
	}
	if live == 0 {
		return
	}
	// The floor from Tune's weight clamp, expressed in ticks, with a
	// small tolerance for rounding.
	floor := Ticks(float64(total) * c.cfg.MinWeight / float64(live) * 1.5)
	for _, id := range m.Servers() {
		l := m.Length(id)
		if l > 0 && l <= floor {
			c.atFloor[id]++
		} else {
			delete(c.atFloor, id)
		}
	}
}

// Average returns the request-weighted mean latency across reports,
// the delegate's "average value for the whole system". Failed and idle
// servers do not contribute. The second result is false when no server
// completed any request.
func Average(reports []Report) (float64, bool) {
	var sum float64
	var n uint64
	for _, r := range reports {
		if r.Failed || r.Requests == 0 {
			continue
		}
		sum += r.Latency * float64(r.Requests)
		n += r.Requests
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Tune applies one feedback round to the map and reports whether any
// region length changed. The reports must cover a subset of the map's
// servers; servers without a report are treated as idle.
func (c *Controller) Tune(m *Map, reports []Report) (bool, error) {
	c.rounds++
	byID := make(map[ServerID]Report, len(reports))
	for _, r := range reports {
		if !m.Has(r.Server) {
			return false, fmt.Errorf("anu: Tune: report for unknown server %d", r.Server)
		}
		byID[r.Server] = r
	}

	smoothed := c.smooth(byID)
	avg, ok := weightedAverage(m.order, byID, smoothed)
	if !ok {
		// Nothing completed anywhere: only act on failures.
		return c.tuneFailuresOnly(m, byID)
	}

	if c.inDeadBand(m, byID, smoothed, avg) {
		// Balanced within tolerance; still honour failures.
		return c.tuneFailuresOnly(m, byID)
	}

	lengths := m.Lengths()
	weights := make(map[ServerID]float64, len(lengths))
	var live []ServerID
	for _, id := range m.order { // id order: the sums over live below are order-sensitive
		l := lengths[id]
		weights[id] = float64(l)
		r, reported := byID[id]
		switch {
		case reported && r.Failed:
			weights[id] = 0
			continue
		case !reported || r.Requests == 0:
			weights[id] = float64(l) * c.cfg.IdleGrowth
		default:
			// Servers individually inside the dead band hold their
			// weight; only out-of-band servers scale. This keeps one
			// noisy outlier from perturbing every boundary.
			if avg > 0 && math.Abs(smoothed[id]-avg)/avg <= c.cfg.DeadBand {
				break
			}
			mult := math.Pow(avg/smoothed[id], c.cfg.Gamma)
			if mult > c.cfg.MaxStep {
				mult = c.cfg.MaxStep
			} else if mult < 1/c.cfg.MaxShrink {
				mult = 1 / c.cfg.MaxShrink
			}
			weights[id] = float64(l) * mult
		}
		live = append(live, id)
	}
	if len(live) == 0 {
		return c.tuneFailuresOnly(m, byID)
	}

	// Floor live weights so no addressable server disappears entirely.
	if c.cfg.MinWeight > 0 {
		var total float64
		for _, id := range live {
			total += weights[id]
		}
		floor := c.cfg.MinWeight * total / float64(len(live))
		for _, id := range live {
			if weights[id] < floor {
				weights[id] = floor
			}
		}
	}
	// If every live server's region had already collapsed to zero (for
	// example after a report blackout marked the whole cluster failed),
	// multiplicative scaling cannot restart it: re-bootstrap the live
	// servers with equal shares, the same cold-start rule as New.
	var total float64
	for _, id := range live {
		total += weights[id]
	}
	if total == 0 {
		for _, id := range live {
			weights[id] = 1
		}
	}

	before := m.Lengths()
	if err := m.SetWeights(weights); err != nil {
		return false, err
	}
	c.trackFloor(m)
	return changed(before, m.Lengths()), nil
}

// smooth folds the new reports into the EWMA state and returns the
// effective latency per reporting, non-failed, non-idle server.
func (c *Controller) smooth(byID map[ServerID]Report) map[ServerID]float64 {
	out := make(map[ServerID]float64, len(byID))
	for id, r := range byID {
		if r.Failed || r.Requests == 0 {
			continue
		}
		prev, seen := c.ewma[id]
		v := r.Latency
		if seen && c.cfg.Smoothing > 0 {
			v = c.cfg.Smoothing*prev + (1-c.cfg.Smoothing)*r.Latency
		}
		c.ewma[id] = v
		out[id] = v
	}
	return out
}

// weightedAverage sums in the order of ids, so equal inputs give
// bit-equal averages: a float sum depends on its order.
func weightedAverage(ids []ServerID, byID map[ServerID]Report, smoothed map[ServerID]float64) (float64, bool) {
	var sum float64
	var n uint64
	for _, id := range ids {
		lat, ok := smoothed[id]
		if !ok {
			continue
		}
		req := byID[id].Requests
		sum += lat * float64(req)
		n += req
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

func (c *Controller) inDeadBand(m *Map, byID map[ServerID]Report, smoothed map[ServerID]float64, avg float64) bool {
	if c.cfg.DeadBand == 0 || avg == 0 {
		return false
	}
	if m.TotalMapped() == 0 {
		// A fully collapsed map is never "balanced": the scaling pass
		// must run so live servers can be re-bootstrapped.
		return false
	}
	for id, r := range byID {
		if r.Failed {
			if m.Length(id) > 0 {
				return false // a failure always acts
			}
			continue
		}
		if r.Requests == 0 {
			continue
		}
		if dev := math.Abs(smoothed[id]-avg) / avg; dev > c.cfg.DeadBand {
			return false
		}
	}
	return true
}

// tuneFailuresOnly zeroes failed servers' regions and leaves everything
// else proportionally unchanged.
func (c *Controller) tuneFailuresOnly(m *Map, byID map[ServerID]Report) (bool, error) {
	any := false
	ids := make([]ServerID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if byID[id].Failed && m.Length(id) > 0 {
			if err := m.Fail(id); err != nil {
				return any, err
			}
			any = true
		}
	}
	return any, nil
}

func changed(a, b map[ServerID]Ticks) bool {
	for id, l := range a {
		if b[id] != l {
			return true
		}
	}
	return false
}
