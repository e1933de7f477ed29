// Package cluster is the networked runtime for the delegate protocol
// of package delegate, and its one runner: it turns the node-level
// protocol into a system that survives what real networks do.
//
// Each server runs one Runtime around its delegate.Node, the protocol's
// transport-free state machine: the runtime hands every inbound report
// and map to the node's Receive under its lock, and sends what the node
// builds (Report, Rescale) itself. Runtimes exchange messages over a
// Transport — real TCP (ListenTCP) with per-peer connection pooling,
// timeouts and retry with backoff, or the in-memory fabric
// (NewMemNetwork) that drops, duplicates, delays and reorders messages
// under a seeded RNG for tests, soaks and benchmarks.
//
// Liveness is observed, not assumed: the membership view a round works
// with is "self plus every peer heard from within FailAfter". The
// delegate for a view is the lowest live id (the paper's stateless
// succession rule). Heartbeats flow toward the delegate line, the three
// lowest ids a node has heard: a node with three heard ids below its
// own heartbeats only those, and every other node, the delegate among
// them, heartbeats every member. So the delegate hears every follower
// and every follower hears the delegate and its successors, with about
// 6n heartbeats per interval instead of n(n-1). A node that falls back
// from the line to heartbeating everyone may not take over as delegate
// until it has done so for FailAfter, so a line that dies all at once
// does not leave every survivor electing itself. The
// elected delegate paces rounds on its own clock and announces each
// round through its heartbeats; followers report when they observe a
// new round, and a round watchdog re-elects when the delegate stays
// silent — heartbeats without placement maps are not progress.
//
// The delegate's tune wait is driven by report arrival. It tunes once
// every live peer has reported, or once stragglers have had as long
// again as the quorum took to arrive, or half a round after the round
// opened, whichever is first, and sends the new map to every other
// member. Servers silent beyond FailAfter are treated as failed per the
// paper — their region is released to the survivors — while a server
// that merely missed one report window but is demonstrably alive is left
// idle rather than evicted, and still installs the map. A failed server
// heard again is re-admitted with an equal share in the next map
// (placement.TuneRound).
//
// Wire invariant established here and in package delegate: installed
// placements are fenced by the (epoch, round) pair. The view epoch
// increments each time a node takes over as delegate and rides every
// heartbeat and map message; a reordered, duplicated, or
// partition-replayed MsgMap carrying a lower pair is counted and
// dropped, never installed over a newer placement — even one whose raw
// round number raced ahead under a superseded delegate.
//
// Live strategy migration (Migrate) is an ordinary map round: the
// delegate's next map serves the target strategy inside a window that
// also names the old one, so every node installs it through the same
// fence, and after a fixed number of rounds the plain map closes the
// window (see migrate.go).
//
// Durability is opt-in: give Config a Journal and every installed
// placement is appended (with its fence) and fsynced, and a restarted
// Runtime resumes from the journal's last record — map, epoch and round
// — instead of the bootstrap snapshot, so it rejoins without replaying
// a stale map and keeps rejecting anything older than what it
// persisted. With Journal nil the runtime is exactly the in-memory
// system it was before.
//
// Concurrency and time: each Runtime is the paper's management agent as
// one sequence of events (an inbound message, a Migrate call, or its
// earliest deadline of the next heartbeat, round tick and tune cutoff),
// each handled to completion, its messages sent and its journal records
// flushed, before the next. Protocol steps take the time as an argument.
// Start runs them on one goroutine, ended by Stop, that waits on one
// timer and reads the wall clock once per event; the tests also step
// unstarted runtimes on a virtual clock, where a seed replays exactly.
// So protocol state has one writer and the journal sees every install,
// in install order. The mutex only lets other goroutines read the
// per-message state (Stats, Epoch, Delegate); the installed map is one
// immutable delegate.Installed published through an atomic pointer, so
// the lookup path and MapState, Snapshot and Placement take no lock at
// all.
package cluster

import (
	"fmt"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

// ObserveFunc samples the local server's performance for the elapsed
// interval: the number of requests served and their mean latency in
// seconds. It runs inside a protocol step, on the runtime's one loop and
// without the runtime's lock, so it may call the accessors and the
// lookup path (Stats, Lookup, ...), but it must not call Migrate or
// Stop, which wait for that loop. s is the node's published placement snapshot,
// immutable and read-only — strategy-agnostic observers read shares
// through s.Shares().
type ObserveFunc func(s placement.Strategy, id delegate.NodeID) (requests uint64, meanLatencySeconds float64)

// Journal persists installed placements. Implementations must make
// Append durable before returning (the runtime treats a nil error as
// "this record survives a crash") and must keep the monotone rule: a
// record that does not supersede the last one is skipped, not an
// error. *journal.Journal and *journal.ChaosJournal implement it. The
// caller owns the journal's lifecycle; the Runtime never closes it.
type Journal interface {
	// LastPlacement returns the newest placement record — what a
	// restarting node serves from.
	LastPlacement() (journal.Record, bool)
	// Append durably records an installed placement.
	Append(rec journal.Record) error
}

// Config configures one node's runtime.
type Config struct {
	// ID is this node's identity; it must be a member of the snapshot.
	ID delegate.NodeID
	// Members is the full configured membership (including ID).
	Members []delegate.NodeID
	// Snapshot is the encoded initial placement all members bootstrap
	// from; its bytes carry the strategy tag.
	Snapshot []byte
	// Controller configures the ANU feedback controller (when the
	// strategy is ANU). The zero value means the defaults.
	Controller anu.ControllerConfig
	// Strategy is the registered placement strategy of the bootstrap
	// Snapshot ("anu", "chord-bounded", ...). Empty means "anu". A
	// Snapshot with another tag is a configuration error. A
	// journal-recovered placement boots whatever its tag: a live
	// migration moves the cluster off this strategy.
	Strategy string
	// Weights carries per-server capacity weights for weight-aware
	// strategies (rendezvous, weighted-static, power-of-d). They apply
	// when this node constructs a fresh placement — bootstrap and the
	// first map of a live migration; decoded snapshots carry their own
	// weights in the bytes. Zero value means uniform. Ignored by
	// strategies without capacity knowledge.
	Weights map[delegate.NodeID]float64

	// RoundInterval is the tuning cadence (the paper's two-minute
	// interval; tests use milliseconds). Required.
	RoundInterval time.Duration
	// HeartbeatInterval is the liveness beacon period.
	// Default: RoundInterval/8 (at least 1ms).
	HeartbeatInterval time.Duration
	// FailAfter is how long a peer may stay silent before it is
	// considered dead: dropped from the membership view and, at tune
	// time, marked failed so its region goes to the survivors.
	// Default: 4×HeartbeatInterval + RoundInterval.
	FailAfter time.Duration
	// WatchdogRounds re-elects when no map has been installed for this
	// many round intervals: the current delegate is suspected for
	// FailAfter so election moves to the next id. Default: 3.
	WatchdogRounds uint64
	// MigrateTimeout is the length of a live migration's window
	// (Migrate): the delegate sends the target's maps inside the window
	// for this long, in whole rounds rounded up, and then the plain map.
	// A node down for the whole window misses the migration. Default:
	// 20×RoundInterval.
	MigrateTimeout time.Duration

	// Observe samples local performance each round. Optional; when nil
	// the node reports zero load.
	Observe ObserveFunc
	// Journal, when non-nil, makes installed placements durable: every
	// install is appended with its (epoch, round) fence, and Start
	// recovers the journal's last record — resuming from the persisted
	// placement instead of Snapshot. Nil keeps the in-memory behavior.
	Journal Journal
	// Logf receives diagnostic messages. Optional.
	Logf func(format string, args ...any)
}

// withDefaults validates cfg and fills unset tuning knobs.
func (cfg Config) withDefaults() (Config, error) {
	if len(cfg.Members) == 0 {
		return cfg, fmt.Errorf("cluster: no members configured")
	}
	member := false
	for _, id := range cfg.Members {
		if id == cfg.ID {
			member = true
			break
		}
	}
	if !member {
		return cfg, fmt.Errorf("cluster: node %d not in configured members", cfg.ID)
	}
	if cfg.RoundInterval <= 0 {
		return cfg, fmt.Errorf("cluster: RoundInterval must be positive, got %v", cfg.RoundInterval)
	}
	// Timing knobs are validated, not silently clamped: zero means "use
	// the default", but a negative duration is always a config bug —
	// tickers would panic or loops would spin — so it fails Start.
	for _, knob := range []struct {
		name string
		val  time.Duration
	}{
		{"HeartbeatInterval", cfg.HeartbeatInterval},
		{"FailAfter", cfg.FailAfter},
		{"MigrateTimeout", cfg.MigrateTimeout},
	} {
		if knob.val < 0 {
			return cfg, fmt.Errorf("cluster: %s must not be negative, got %v", knob.name, knob.val)
		}
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = cfg.RoundInterval / 8
		if cfg.HeartbeatInterval < time.Millisecond {
			cfg.HeartbeatInterval = time.Millisecond
		}
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 4*cfg.HeartbeatInterval + cfg.RoundInterval
	}
	if cfg.MigrateTimeout == 0 {
		cfg.MigrateTimeout = 20 * cfg.RoundInterval
	}
	if cfg.WatchdogRounds == 0 {
		cfg.WatchdogRounds = 3
	}
	if cfg.Strategy == "" {
		cfg.Strategy = placement.StrategyANU
	}
	return cfg, nil
}

// placementOptions builds the strategy construction options used when
// this node decodes snapshots.
func (cfg Config) placementOptions() placement.Options {
	return placement.Options{Controller: cfg.Controller, Weights: cfg.Weights}
}

// logf emits a diagnostic when a logger is configured.
func (cfg Config) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}
