package cluster

import (
	"fmt"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/metrics"
	"anurand/internal/placement"
)

// latencyHistogram builds the runtime's standard latency histogram:
// 1 µs to 1000 s in seconds, ten geometric buckets per decade — wide
// enough that install latencies (milliseconds) and observer-reported
// request latencies (anything) land in real buckets, not overflow.
func latencyHistogram() *metrics.Histogram {
	return metrics.NewHistogram(1e-6, 1e3, 90)
}

// Counters is the runtime's own instrumentation: the protocol events
// this node counted and the latency distributions behind them. The
// runtime keeps one guarded by Runtime.mu; Stats embeds a copy whose
// histograms are independent clones.
type Counters struct {
	// Tunes counts rounds this node rescaled as delegate.
	Tunes uint64
	// MapsInstalled counts placement maps accepted from a delegate.
	MapsInstalled uint64
	// Reelections counts observed delegate changes.
	Reelections uint64
	// WatchdogTrips counts delegates suspected for producing no maps.
	WatchdogTrips uint64

	ReportsSent        uint64
	ReportsReceived    uint64
	HeartbeatsSent     uint64
	HeartbeatsReceived uint64
	// JournalAppendErrors counts installed placements that could not be
	// made durable (the append or its fsync failed). The node keeps
	// serving from memory and retries on the next install.
	JournalAppendErrors uint64

	// ReportsPerTune summarizes how many reports (including the
	// delegate's own sample) each tune acted on.
	ReportsPerTune metrics.Summary
	// InstallLatency summarizes seconds from learning a round to
	// installing its map. A map that arrives before any news of its
	// round is not timed.
	InstallLatency metrics.Summary
	// InstallLatencyHist is the distribution behind InstallLatency:
	// per-node install latency with p50/p95/p99 tails. The paper's
	// claim is performance *consistency*, and a mean cannot show the
	// tail where inconsistency lives.
	InstallLatencyHist *metrics.Histogram
	// SampleLatencyHist is the distribution of latencies this node's
	// observer reported into the protocol (seconds, observer-defined).
	SampleLatencyHist *metrics.Histogram
}

// Stats is an operator snapshot of one runtime: where the node thinks
// the cluster is, and what the protocol has been doing.
type Stats struct {
	ID       delegate.NodeID
	Epoch    uint64
	Round    uint64
	Delegate delegate.NodeID
	// Live is the node's observed view: itself and every member heard
	// within FailAfter and not suspected by the watchdog. On the
	// delegate and the rest of the line that is the whole live
	// membership; on any other node it is the line, itself and the peers
	// it heard recently.
	Live []delegate.NodeID
	// (MapEpoch, MapRound) is the installed map's fence.
	MapEpoch uint64
	MapRound uint64
	// Strategy is the registered tag of the placement strategy this node
	// runs ("anu", "chord-bounded", ...).
	Strategy string
	// Window is the live migration window the installed map holds:
	// open while the map also names the strategy being migrated from.
	// A node reads it from its own map, so a window reaches Stats as
	// fast as the maps that carry it.
	Window placement.Window

	Counters
	// InstallStats is the node's count of refused map messages, by
	// cause.
	delegate.InstallStats

	// SendDrops counts outbound messages the transport's async fan-out
	// lane dropped (per-peer queue full or transport closed). Drops are
	// bounded loss under backpressure, not errors: the gossip cadence
	// re-sends, so a nonzero value means a peer lane saturated, not
	// that state was lost.
	SendDrops uint64

	// Recovered reports whether Start resumed from a journal record
	// rather than the bootstrap snapshot; RecoveredEpoch/RecoveredRound
	// give the fence it resumed at.
	Recovered      bool
	RecoveredEpoch uint64
	RecoveredRound uint64
	// Journal carries the journal's own durability counters (records
	// recovered, torn tails truncated, fsync errors, compactions) when
	// the configured Journal exposes them; zero otherwise.
	Journal journal.Stats
}

// Stats returns the runtime's operator snapshot.
func (r *Runtime) Stats() Stats {
	now := time.Now()
	r.mu.Lock()
	m := r.installed.Load() // under mu, so it pairs with the counters
	s := Stats{
		ID:           r.cfg.ID,
		Epoch:        r.epoch,
		Round:        r.round,
		Delegate:     r.curDelegate,
		Live:         r.viewLocked(now),
		MapEpoch:     m.Epoch,
		MapRound:     m.Round,
		Strategy:     m.Strategy.Name(),
		Window:       m.Window,
		Counters:     r.counters,
		InstallStats: r.node.InstallStats(),
		SendDrops:    r.sendDrops.Load(),
	}
	s.InstallLatencyHist = s.InstallLatencyHist.Clone()
	s.SampleLatencyHist = s.SampleLatencyHist.Clone()
	if r.recovered != nil {
		s.Recovered = true
		s.RecoveredEpoch = r.recovered.Epoch
		s.RecoveredRound = r.recovered.Round
	}
	r.mu.Unlock()
	// The journal has its own lock; query it outside ours.
	if js, ok := r.cfg.Journal.(interface{ Stats() journal.Stats }); ok {
		s.Journal = js.Stats()
	}
	return s
}

// String formats the snapshot for operators.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"node %d: strategy=%s epoch=%d round=%d delegate=%d live=%v map=(%d,%d) tunes=%d installs=%d stale=%d staleEpoch=%d tagMismatch=%d reelect=%d watchdog=%d reports(sent=%d recv=%d per-tune %s) install-latency %s",
		s.ID, s.Strategy, s.Epoch, s.Round, s.Delegate, s.Live, s.MapEpoch, s.MapRound, s.Tunes, s.MapsInstalled,
		s.StaleMapsRejected, s.StaleEpochsRejected, s.TagMismatchesRejected, s.Reelections, s.WatchdogTrips,
		s.ReportsSent, s.ReportsReceived, s.ReportsPerTune.String(), s.InstallLatency.String(),
	)
	if s.Window.IsOpen() {
		out += fmt.Sprintf(" window(from=%s opened=%d)", s.Window.From, s.Window.Opened)
	}
	if s.UndecodableMapsRejected > 0 {
		out += fmt.Sprintf(" undecodable=%d", s.UndecodableMapsRejected)
	}
	if s.SendDrops > 0 {
		out += fmt.Sprintf(" send-drops=%d", s.SendDrops)
	}
	if s.InstallLatencyHist != nil && s.InstallLatencyHist.Total() > 0 {
		out += fmt.Sprintf(" install-hist(%s)", s.InstallLatencyHist)
	}
	if s.SampleLatencyHist != nil && s.SampleLatencyHist.Total() > 0 {
		out += fmt.Sprintf(" sample-hist(%s)", s.SampleLatencyHist)
	}
	if s.Recovered {
		out += fmt.Sprintf(" recovered=(%d,%d)", s.RecoveredEpoch, s.RecoveredRound)
	}
	if s.Journal != (journal.Stats{}) || s.JournalAppendErrors > 0 {
		out += fmt.Sprintf(" journal(recovered=%d torn=%d appends=%d skipped=%d compactions=%d fsync-errs=%d append-errs=%d)",
			s.Journal.RecordsRecovered, s.Journal.TornTailsTruncated, s.Journal.Appends,
			s.Journal.AppendsSkipped, s.Journal.Compactions, s.Journal.SyncErrors, s.JournalAppendErrors)
	}
	return out
}
