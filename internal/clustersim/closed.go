package clustersim

import (
	"fmt"
	"math"
	"strconv"

	"anurand/internal/anu"
	"anurand/internal/hashx"
	"anurand/internal/metrics"
	"anurand/internal/policy"
	"anurand/internal/rng"
	"anurand/internal/sim"
	"anurand/internal/workload"
)

// ClosedConfig describes a closed-loop simulation: instead of replaying
// an open trace, a fixed population of clients each cycles through
// think -> metadata request -> data transfer -> think, exactly the
// client behaviour of the paper's Figure 1 architecture. Closed-loop
// clients make Section 3's motivation structural: a client stuck in a
// slow metadata queue stops offering load entirely, so metadata
// imbalance throttles whole-cluster throughput rather than just
// stretching latencies.
type ClosedConfig struct {
	// Seed drives think times and file-set choices.
	Seed uint64

	// Speeds gives each server's capacity (ids are indices).
	Speeds []float64

	// Policy places file sets on servers.
	Policy policy.Placer

	// FileSets is the namespace; Weight biases which file set a client
	// touches each cycle.
	FileSets []workload.FileSet

	// Clients is the population size.
	Clients int

	// ThinkTime is the mean think time between cycles (exponential).
	ThinkTime float64

	// MetadataDemand is the metadata service requirement in unit-speed
	// seconds.
	MetadataDemand float64

	// SAN optionally adds the data-transfer phase after metadata.
	SAN SANConfig

	// TuneInterval is the load-placement tuning period.
	TuneInterval float64

	// Duration is the measured run length in seconds.
	Duration float64
}

// Validate reports the first nonsensical parameter.
func (c *ClosedConfig) Validate() error {
	switch {
	case len(c.Speeds) == 0:
		return fmt.Errorf("clustersim: closed: no servers")
	case c.Policy == nil:
		return fmt.Errorf("clustersim: closed: nil policy")
	case len(c.FileSets) == 0:
		return fmt.Errorf("clustersim: closed: no file sets")
	case c.Clients <= 0:
		return fmt.Errorf("clustersim: closed: %d clients", c.Clients)
	case !(c.ThinkTime >= 0) || math.IsInf(c.ThinkTime, 0):
		return fmt.Errorf("clustersim: closed: invalid think time %g", c.ThinkTime)
	case !(c.MetadataDemand > 0):
		return fmt.Errorf("clustersim: closed: invalid metadata demand %g", c.MetadataDemand)
	case !(c.TuneInterval > 0):
		return fmt.Errorf("clustersim: closed: invalid tune interval %g", c.TuneInterval)
	case !(c.Duration > 0):
		return fmt.Errorf("clustersim: closed: invalid duration %g", c.Duration)
	}
	for i, s := range c.Speeds {
		if s <= 0 || math.IsNaN(s) {
			return fmt.Errorf("clustersim: closed: server %d speed %g", i, s)
		}
	}
	return c.SAN.Validate()
}

// ClosedResult is the outcome of a closed-loop run.
type ClosedResult struct {
	// Cycles counts completed client cycles within the run.
	Cycles uint64
	// Throughput is Cycles / Duration.
	Throughput float64
	// MetadataLatency summarizes the metadata phase.
	MetadataLatency metrics.Summary
	// CycleLatency summarizes full request cycles (metadata plus data
	// transfer when the SAN is enabled).
	CycleLatency metrics.Summary
	// SANUtilization is the disks' busy fraction over the run (zero
	// when the SAN is disabled).
	SANUtilization float64
	// TuningRounds counts tuning rounds executed.
	TuningRounds int
}

// closedServer is one server's live state in a closed-loop run.
type closedServer struct {
	res *sim.Resource
	up  bool
	// interval accumulators for latency reports
	n   uint64
	sum float64
}

// closedLoop is the shared harness state of a closed-loop run.
type closedLoop struct {
	cfg      *ClosedConfig
	eng      sim.Engine
	thinkSrc *rng.Source
	pickSrc  *rng.Source
	pick     *rng.Categorical
	think    rng.Exponential
	servers  []*closedServer
	sanPool  *san
	res      *ClosedResult
	err      error

	// Tuning-round scratch, reused across intervals; fsLoads is the
	// constant closed-loop offered load, computed once.
	envServers []policy.ServerInfo
	envReports []anu.Report
	fsLoads    []float64
}

// closedClient is one client's cycle chain. A closed-loop client has at
// most one request in flight, so its cycle state lives in the struct
// instead of a closure per cycle, and the pooled metadata and transfer
// jobs reference the two callbacks built once at start-up.
type closedClient struct {
	h     *closedLoop
	start float64
	fs    int
	srv   *closedServer

	mdDone  func(*sim.Job)
	sanDone func(*sim.Job)
}

// closedCycle starts a client's next think->request cycle (the typed
// re-schedule callback, so cycling never allocates).
func closedCycle(arg any) {
	c := arg.(*closedClient)
	h := c.h
	c.start = h.eng.Now()
	c.fs = h.pick.Sample(h.pickSrc)
	c.srv = h.route(c.fs)
	j := h.eng.AcquireJob()
	j.Demand = h.cfg.MetadataDemand
	j.Done = c.mdDone
	c.srv.res.Submit(j)
}

// route returns the live server for a file set: the policy's placement
// when it is up, otherwise a deterministic index fallback.
func (h *closedLoop) route(fs int) *closedServer {
	if id := h.cfg.Policy.Place(fs); id != policy.NoServer {
		if int(id) < len(h.servers) && h.servers[id].up {
			return h.servers[id]
		}
	}
	return h.servers[fs%len(h.servers)]
}

// metadataDone records the metadata phase and either finishes the cycle
// or releases the data transfer to the SAN.
func (c *closedClient) metadataDone() {
	h := c.h
	now := h.eng.Now()
	mdLatency := now - c.start
	if now <= h.cfg.Duration {
		h.res.MetadataLatency.Add(mdLatency)
	}
	c.srv.n++
	c.srv.sum += mdLatency
	if h.sanPool == nil {
		c.finish()
		return
	}
	// The closed loop stripes by the pre-increment sequence (the open
	// loop increments first); both keys hash through the reused buffer,
	// bit-identical to the fmt.Sprintf form.
	p := h.sanPool
	b := strconv.AppendInt(p.keyBuf[:0], int64(c.fs), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, p.seq, 10)
	p.keyBuf = b
	disk := p.disks[p.family.HashDigest(hashx.PrehashBytes(b), 0)%uint64(len(p.disks))]
	p.seq++
	j := h.eng.AcquireJob()
	j.Demand = h.cfg.SAN.TransferDemand
	j.Done = c.sanDone
	disk.Submit(j)
}

// finish closes the cycle and, while the run lasts, schedules the next
// one after an exponential think time.
func (c *closedClient) finish() {
	h := c.h
	now := h.eng.Now()
	if now <= h.cfg.Duration {
		h.res.Cycles++
		h.res.CycleLatency.Add(now - c.start)
	}
	if now < h.cfg.Duration {
		h.eng.ScheduleCall(h.think.Sample(h.thinkSrc), closedCycle, c)
	}
}

// RunClosed executes a closed-loop simulation.
func RunClosed(cfg ClosedConfig) (*ClosedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	h := &closedLoop{
		cfg:      &cfg,
		thinkSrc: src.Stream("think"),
		pickSrc:  src.Stream("pick"),
		think:    rng.NewExponential(1 / math.Max(cfg.ThinkTime, 1e-9)),
		res:      &ClosedResult{},
	}

	weights := make([]float64, len(cfg.FileSets))
	for i, fs := range cfg.FileSets {
		w := fs.Weight
		if w <= 0 {
			w = 1
		}
		weights[i] = w
	}
	h.pick = rng.NewCategorical(weights)

	h.servers = make([]*closedServer, len(cfg.Speeds))
	for i, speed := range cfg.Speeds {
		h.servers[i] = &closedServer{res: sim.NewResource(&h.eng, resourceName("server-", i), speed), up: true}
	}

	if cfg.SAN.Enabled {
		h.sanPool = newSAN(&h.eng, cfg.SAN)
	}

	// Closed-loop ground truth for prescient-class policies: the
	// long-run offered load per file set under the pick weights. It is
	// constant across rounds, so it is computed once and the slice
	// shared with every Retune (as the open loop has always done).
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	offered := float64(cfg.Clients) / math.Max(cfg.ThinkTime, 1e-9) * cfg.MetadataDemand
	h.fsLoads = make([]float64, len(weights))
	for i, w := range weights {
		h.fsLoads[i] = offered * w / totalW
	}

	// Each client is a self-rescheduling cycle chain with a random
	// initial phase. The two completion callbacks are built once per
	// client; every subsequent cycle reuses them with pooled jobs.
	for i := 0; i < cfg.Clients; i++ {
		c := &closedClient{h: h}
		c.mdDone = func(*sim.Job) { c.metadataDone() }
		c.sanDone = func(*sim.Job) { c.finish() }
		h.eng.ScheduleCall(h.think.Sample(h.thinkSrc)*h.thinkSrc.Float64(), closedCycle, c)
	}

	// Tuning loop: report per-server interval latencies to the policy.
	ticker := h.eng.NewTicker(cfg.TuneInterval, func() {
		if h.eng.Now() > cfg.Duration {
			return
		}
		h.res.TuningRounds++
		env := policy.Env{Now: h.eng.Now(), FileSetLoads: h.fsLoads}
		servers := h.envServers[:0]
		reports := h.envReports[:0]
		for i, s := range h.servers {
			servers = append(servers, policy.ServerInfo{ID: policy.ServerID(i), Speed: cfg.Speeds[i], Up: s.up})
			rep := anu.Report{Server: policy.ServerID(i), Requests: s.n}
			if s.n > 0 {
				rep.Latency = s.sum / float64(s.n)
			}
			reports = append(reports, rep)
			s.n, s.sum = 0, 0
		}
		h.envServers, h.envReports = servers, reports
		env.Servers, env.Reports = servers, reports
		if err := cfg.Policy.Retune(&env); err != nil {
			h.err = fmt.Errorf("clustersim: closed retune at t=%.0f: %w", h.eng.Now(), err)
			h.eng.Stop()
		}
	})

	// Snapshot SAN busy time exactly at the measurement horizon, before
	// the post-run drain inflates it.
	var busyInWindow float64
	if h.sanPool != nil {
		h.eng.ScheduleAt(cfg.Duration, func() {
			for _, d := range h.sanPool.disks {
				busyInWindow += d.BusyTime()
			}
		})
	}

	h.eng.Run(cfg.Duration)
	ticker.Stop()
	h.eng.RunAll()
	if h.err != nil {
		return nil, h.err
	}

	h.res.Throughput = float64(h.res.Cycles) / cfg.Duration
	if h.sanPool != nil {
		h.res.SANUtilization = busyInWindow / (float64(len(h.sanPool.disks)) * cfg.Duration)
	}
	return h.res, nil
}
