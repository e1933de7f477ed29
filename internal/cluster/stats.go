package cluster

import (
	"fmt"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/metrics"
	"anurand/internal/migrate"
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

	// MigrationsStarted counts migrations this node led;
	// MigrationsCommitted/Aborted count local cutovers and rollbacks;
	// MigrationMsgsRejected counts undecodable or tag-mismatched
	// migration payloads.
	MigrationsStarted     uint64
	MigrationsCommitted   uint64
	MigrationsAborted     uint64
	MigrationMsgsRejected uint64

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
	// MigratePhaseLatencyHist is the per-phase migration latency
	// distribution (seconds per phase edge, including rollbacks);
	// MigrateLatencyHist is whole-migration propose-to-flip latency.
	MigratePhaseLatencyHist *metrics.Histogram
	MigrateLatencyHist      *metrics.Histogram
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
	// it heard recently (see Runtime.View).
	Live     []delegate.NodeID
	MapEpoch uint64
	MapRound uint64
	// Strategy is the registered tag of the placement strategy this node
	// runs ("anu", "chord-bounded", ...).
	Strategy string

	Counters

	// StaleMapsRejected counts old-round maps refused by the fence —
	// each one is a reordering the protocol survived.
	StaleMapsRejected uint64
	// StaleEpochsRejected counts maps from superseded view epochs
	// refused by the fence — each one is a partitioned or deposed
	// delegate that failed to roll the placement back.
	StaleEpochsRejected uint64
	// TagMismatchesRejected counts placements refused because their
	// strategy tag differed from the node's — a misconfigured peer, not
	// a protocol race.
	TagMismatchesRejected uint64
	// CrossTagInstallsRejected counts placements refused during a
	// dual-tag window because they carried neither the node's current
	// strategy nor the migration target — a third strategy has no
	// business on the wire mid-cutover.
	CrossTagInstallsRejected uint64
	// UndecodableMapsRejected counts placement payloads that failed to
	// decode at all (truncated or corrupt snapshots).
	UndecodableMapsRejected uint64
	// SendDrops counts outbound messages the transport's async fan-out
	// lane dropped (per-peer queue full or transport closed). Drops are
	// bounded loss under backpressure, not errors: the gossip cadence
	// re-sends, so a nonzero value means a peer lane saturated, not
	// that state was lost.
	SendDrops uint64

	// MigrationPhase is the in-flight live migration's phase ("idle"
	// when none), with its id and endpoints; DualTagInstalls counts
	// cutover installs accepted through a dual-tag window.
	MigrationPhase  string
	MigrationID     uint64
	MigrationFrom   string
	MigrationTo     string
	DualTagInstalls uint64
	// RecoveredMigration names the migration phase Start resumed (or
	// recognised as committed) from the journal, "" when none.
	RecoveredMigration string
	// DelegateMigrating mirrors the FlagMigrating gossip bit last seen
	// from the current delegate — informational only.
	DelegateMigrating bool

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
	s := Stats{
		ID:                       r.cfg.ID,
		Epoch:                    r.epoch,
		Round:                    r.round,
		Delegate:                 r.curDelegate,
		Live:                     r.viewLocked(now),
		MapEpoch:                 r.node.MapEpoch(),
		MapRound:                 r.node.MapRound(),
		Strategy:                 r.node.Strategy(),
		Counters:                 r.counters,
		StaleMapsRejected:        r.node.StaleMapsRejected(),
		StaleEpochsRejected:      r.node.StaleEpochsRejected(),
		TagMismatchesRejected:    r.node.TagMismatchesRejected(),
		CrossTagInstallsRejected: r.node.CrossTagRejected(),
		UndecodableMapsRejected:  r.node.UndecodableMapsRejected(),
		SendDrops:                r.sendDrops.Load(),
		MigrationPhase:           migrate.Idle.String(),
		DualTagInstalls:          r.node.DualTagInstalls(),
		RecoveredMigration:       r.recoveredMig,
		DelegateMigrating:        r.delegateMigrating,
	}
	s.InstallLatencyHist = s.InstallLatencyHist.Clone()
	s.SampleLatencyHist = s.SampleLatencyHist.Clone()
	s.MigratePhaseLatencyHist = s.MigratePhaseLatencyHist.Clone()
	s.MigrateLatencyHist = s.MigrateLatencyHist.Clone()
	if r.mig != nil {
		s.MigrationPhase = r.mig.phase.String()
		s.MigrationID = r.mig.rec.ID
		s.MigrationFrom = r.mig.rec.From
		s.MigrationTo = r.mig.rec.To
	}
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
	if s.MigrationPhase != "" && s.MigrationPhase != "idle" {
		out += fmt.Sprintf(" migration(%s id=%d %s->%s)", s.MigrationPhase, s.MigrationID, s.MigrationFrom, s.MigrationTo)
	}
	if s.MigrationsStarted+s.MigrationsCommitted+s.MigrationsAborted+s.DualTagInstalls+
		s.CrossTagInstallsRejected+s.UndecodableMapsRejected+s.MigrationMsgsRejected > 0 {
		out += fmt.Sprintf(" migrations(started=%d committed=%d aborted=%d dual-installs=%d cross-tag=%d undecodable=%d bad-msgs=%d)",
			s.MigrationsStarted, s.MigrationsCommitted, s.MigrationsAborted, s.DualTagInstalls,
			s.CrossTagInstallsRejected, s.UndecodableMapsRejected, s.MigrationMsgsRejected)
	}
	if s.DelegateMigrating {
		out += " delegate-migrating"
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
	if s.MigratePhaseLatencyHist != nil && s.MigratePhaseLatencyHist.Total() > 0 {
		out += fmt.Sprintf(" migrate-phase-hist(%s)", s.MigratePhaseLatencyHist)
	}
	if s.Recovered {
		out += fmt.Sprintf(" recovered=(%d,%d)", s.RecoveredEpoch, s.RecoveredRound)
	}
	if s.RecoveredMigration != "" {
		out += fmt.Sprintf(" recovered-migration=%s", s.RecoveredMigration)
	}
	if s.Journal != (journal.Stats{}) || s.JournalAppendErrors > 0 {
		out += fmt.Sprintf(" journal(recovered=%d torn=%d appends=%d skipped=%d compactions=%d fsync-errs=%d append-errs=%d)",
			s.Journal.RecordsRecovered, s.Journal.TornTailsTruncated, s.Journal.Appends,
			s.Journal.AppendsSkipped, s.Journal.Compactions, s.Journal.SyncErrors, s.JournalAppendErrors)
	}
	return out
}
