package clustersim

import (
	"fmt"
	"math"
	"strconv"

	"anurand/internal/hashx"
	"anurand/internal/metrics"
	"anurand/internal/sim"
)

// SANConfig models the shared-disk data path of Figure 1: after a
// metadata request completes at a file server, the client fetches data
// directly from the shared disks across the storage area network. The
// paper's motivation for balancing the metadata tier is that "clients
// blocked on metadata may leave the high bandwidth SAN underutilized" —
// this model makes that claim measurable: metadata queueing delays the
// data transfers behind it, and the in-window SAN utilization drops.
type SANConfig struct {
	// Enabled turns the data path on; the zero value keeps the
	// simulation metadata-only, exactly as before.
	Enabled bool

	// Disks is the number of shared disks (each a FIFO station of unit
	// speed).
	Disks int

	// TransferDemand is the data-transfer work per request in
	// disk-seconds. Transfers for a file set stripe across disks by
	// hashing (fileset, request sequence).
	TransferDemand float64
}

// Validate reports the first nonsensical parameter.
func (c SANConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Disks <= 0 {
		return fmt.Errorf("clustersim: SAN needs at least one disk")
	}
	if c.TransferDemand <= 0 || math.IsNaN(c.TransferDemand) || math.IsInf(c.TransferDemand, 0) {
		return fmt.Errorf("clustersim: invalid SAN transfer demand %g", c.TransferDemand)
	}
	return nil
}

// SANStats reports the data-path outcome of a run.
type SANStats struct {
	// Disks is the disk count.
	Disks int

	// Transfers is the number of data transfers completed (including
	// after the trace window, during drain).
	Transfers uint64

	// EndToEnd summarizes request arrival to data-transfer completion —
	// what a client actually experiences.
	EndToEnd metrics.Summary

	// BusyInWindow is the summed disk busy time accrued within the
	// trace window [0, Duration].
	BusyInWindow float64

	// UtilizationInWindow is BusyInWindow / (Disks * Duration): the
	// fraction of the SAN's capacity actually used while the workload
	// was offered. Metadata imbalance defers transfers past the window
	// and this drops — the paper's "underutilized SAN".
	UtilizationInWindow float64
}

// san is the live data-path state inside the runner.
type san struct {
	cfg    SANConfig
	eng    *sim.Engine
	family hashx.Family
	disks  []*sim.Resource
	stats  SANStats
	seq    uint64
	keyBuf []byte         // reusable striping-key scratch ("fs/seq")
	doneFn func(*sim.Job) // shared transfer-completion callback
}

// newSAN builds the disk pool on the runner's engine.
func newSAN(eng *sim.Engine, cfg SANConfig) *san {
	s := &san{cfg: cfg, eng: eng, family: hashx.NewFamily(0x5a4e)}
	for i := 0; i < cfg.Disks; i++ {
		s.disks = append(s.disks, sim.NewResource(eng, resourceName("disk-", i), 1))
	}
	s.stats.Disks = cfg.Disks
	s.doneFn = func(j *sim.Job) {
		s.stats.Transfers++
		s.stats.EndToEnd.Add(s.eng.Now() - j.Stamp)
	}
	return s
}

// transfer dispatches the data transfer that follows a completed
// metadata request. arrive is the original request arrival, so EndToEnd
// captures the full client-visible latency. The striping key is
// formatted into a reused buffer and hashed with PrehashBytes —
// bit-identical to hashing fmt.Sprintf("%d/%d", fs, seq), without the
// two allocations.
func (s *san) transfer(fs int32, arrive float64) {
	s.seq++
	b := strconv.AppendInt(s.keyBuf[:0], int64(fs), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, s.seq, 10)
	s.keyBuf = b
	disk := s.disks[s.family.HashDigest(hashx.PrehashBytes(b), 0)%uint64(len(s.disks))]
	j := s.eng.AcquireJob()
	j.Demand = s.cfg.TransferDemand
	j.Stamp = arrive
	j.Done = s.doneFn
	disk.Submit(j)
}

// snapshotWindow records the in-window busy time; the runner schedules
// it at the trace end, before the drain continues.
func (s *san) snapshotWindow(duration float64) {
	var busy float64
	for _, d := range s.disks {
		busy += d.BusyTime()
	}
	s.stats.BusyInWindow = busy
	if duration > 0 && len(s.disks) > 0 {
		s.stats.UtilizationInWindow = busy / (float64(len(s.disks)) * duration)
	}
}
