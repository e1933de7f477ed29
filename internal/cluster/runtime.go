package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
	"anurand/internal/journal"
	"anurand/internal/migrate"
	"anurand/internal/placement"
)

// maxMailbox bounds buffered protocol messages so a confused peer
// spraying reports cannot grow memory without bound.
const maxMailbox = 4096

// Runtime runs one node of the delegate protocol on the wall clock.
//
// Round pacing: the elected delegate advances the round on its own
// timer and announces it through heartbeats (which carry the sender's
// round); followers never advance the shared round themselves — they
// adopt any newer round observed on the wire and immediately sample
// and report. This keeps all live nodes stamping the same round
// without a global clock, and makes round numbers monotonic gossip
// that survives re-elections: a new delegate continues from the
// highest round it observed.
type Runtime struct {
	cfg Config
	tr  Transport
	// atr is tr's non-blocking fan-out path when it has one, nil
	// otherwise; resolved once at Start. All runtime gossip prefers it:
	// a broadcast becomes N bounded enqueues instead of N synchronous
	// writes, so one slow or dead peer can never stall the rest of a
	// round's fan-out.
	atr  AsyncTransport
	stop chan struct{}
	wg   sync.WaitGroup

	// sendDrops counts messages the async fan-out path dropped
	// (per-peer queue full or transport closed). Atomic: drops are
	// noted on the send path, outside mu.
	sendDrops atomic.Uint64

	// placement is the node's data plane: an immutable snapshot of the
	// installed placement strategy, republished whenever the protocol
	// installs or produces a new placement. Request routing (Lookup,
	// LookupBatch) reads it without touching mu, so the protocol's lock
	// never stalls the serving path.
	placement atomic.Pointer[placement.Strategy]

	mu           sync.Mutex
	node         *delegate.Node
	outbox       []delegate.Message // staged under mu, sent outside it
	mbox         []delegate.Message // inbound protocol messages for the node
	lastSeen     map[delegate.NodeID]time.Time
	suspectUntil map[delegate.NodeID]time.Time
	// epoch is the view epoch: bumped when this node takes over as
	// delegate, adopted from any higher epoch observed on the wire, and
	// stamped into every outbound message. Together with the round it
	// fences installs — see package delegate.
	epoch      uint64
	round      uint64
	roundStart time.Time
	// reportWake is the wakeup of the round this node last opened as
	// delegate: handle signals it, without blocking, on every report for
	// the current round, and that round's tune goroutine waits on it.
	// Each round gets a fresh channel, so a tune left over from an
	// earlier round can never consume the next round's wakeup.
	reportWake chan struct{}
	// journalStage holds records (placements and migration phases, in
	// order) staged for the journal under mu and appended (fsynced)
	// outside it; Journal.Append's own monotone guard keeps racing
	// flushes safe.
	journalStage []journal.Record
	recovered    *journal.Record // the record Start resumed from, if any
	lastMapTime  time.Time
	curDelegate  delegate.NodeID
	stopped      bool
	counters     counters

	// mig is the live strategy migration in flight on this node, nil
	// when idle; migLinger is the leader's post-commit catch-up window.
	// See migrate.go for the state machine.
	mig       *migration
	migLinger *migrationLinger
	migSeq    uint64
	// recoveredMig names the migration phase Start resumed (or
	// recognised as committed) from the journal, "" when none.
	recoveredMig string
	// delegateMigrating mirrors the FlagMigrating bit last gossiped by
	// the current delegate — informational only.
	delegateMigrating bool
}

// nodeTransport adapts the runtime's mailbox to delegate.Transport.
// Every delegate.Node method runs with r.mu held, so the unguarded
// slice accesses here are serialized by that lock.
type nodeTransport struct{ r *Runtime }

func (nt nodeTransport) Send(msg delegate.Message) {
	nt.r.outbox = append(nt.r.outbox, msg)
}

func (nt nodeTransport) Deliver(to delegate.NodeID) []delegate.Message {
	msgs := nt.r.mbox
	nt.r.mbox = nil
	return msgs
}

// Start brings up a runtime on the given transport and begins
// heartbeating and round-driving immediately.
//
// With a configured Journal, Start recovers the journal's newest
// placement record and resumes from it: the persisted map replaces
// cfg.Snapshot as the bootstrap placement, and the node's install
// fence and the runtime's epoch and round resume at the persisted
// (epoch, round) — the restart rejoins where it crashed instead of
// replaying the seed placement. A journaled map that no longer decodes
// is an error, never a silent fallback: the journal's CRC framing
// already rejected disk damage, so an undecodable record means the
// operator pointed the node at the wrong file.
//
// The journal's newest migration record refines that picture (the
// exact phase a crash interrupted — see migrate.go for the recovery
// table): an in-flight Proposed or DualTag phase resumes so the
// cluster's leader retry or the rollback watchdog settles it, a
// journaled cutover to a new strategy boots the new strategy even
// though cfg.Strategy still names the old one, and a terminal record
// behind the placement is history.
func Start(cfg Config, tr Transport) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:          cfg,
		tr:           tr,
		stop:         make(chan struct{}),
		lastSeen:     make(map[delegate.NodeID]time.Time),
		suspectUntil: make(map[delegate.NodeID]time.Time),
		curDelegate:  -1,
	}
	r.atr, _ = tr.(AsyncTransport)
	r.counters.InstallLatencyHist = latencyHistogram()
	r.counters.SampleLatencyHist = latencyHistogram()
	r.counters.MigratePhaseLatencyHist = latencyHistogram()
	r.counters.MigrateLatencyHist = latencyHistogram()
	snapshot := cfg.Snapshot
	if tag, terr := placement.Tag(snapshot); terr != nil {
		return nil, fmt.Errorf("cluster: node %d: bootstrap snapshot: %w", cfg.ID, terr)
	} else if tag != cfg.Strategy {
		return nil, fmt.Errorf("cluster: node %d: bootstrap snapshot carries strategy %q, configured %q", cfg.ID, tag, cfg.Strategy)
	}
	var resumeMig *migrate.Record
	if cfg.Journal != nil {
		plcRec, havePlc := cfg.Journal.LastPlacement()
		migRaw, haveMig := cfg.Journal.LastMigration()
		var migRec migrate.Record
		if haveMig {
			// The CRC framing already accepted these bytes, so a decode
			// failure means a software mismatch, not disk damage: loud
			// error, never a guessed phase.
			mr, merr := migrate.Decode(migRaw.Map)
			if merr != nil {
				return nil, fmt.Errorf("cluster: node %d: journaled migration record unusable: %w", cfg.ID, merr)
			}
			migRec = mr
		}
		switch {
		case havePlc:
			tag, terr := placement.Tag(plcRec.Map)
			if terr != nil {
				return nil, fmt.Errorf("cluster: node %d: journaled placement unusable: %w", cfg.ID, terr)
			}
			migNewer := haveMig && migRaw.Supersedes(plcRec)
			switch {
			case tag == cfg.Strategy:
				snapshot = plcRec.Map
				r.recovered = &plcRec
				r.epoch, r.round = plcRec.Epoch, plcRec.Round
				if haveMig && migRec.From == cfg.Strategy && migRec.Phase != migrate.Aborted {
					// The crash interrupted a migration after its last
					// durable phase record: resume that phase (a journaled
					// Committed whose placement append was lost resumes as
					// a dual-tag catch-up window — see resumeMigration).
					// The placement tail is usually NEWER than the phase
					// record — the old strategy keeps tuning and journaling
					// installs throughout the dual-tag window — so the fence
					// comparison says nothing about liveness; what proves
					// the migration is still open is that the newest
					// migration record is non-terminal (commit and rollback
					// both journal a terminal record).
					resumeMig = &migRec
					if migNewer {
						r.epoch, r.round = migRaw.Epoch, migRaw.Round
					}
				}
			case haveMig && migRec.To == tag && (migRec.Phase == migrate.DualTag || migRec.Phase == migrate.Committed):
				// The journal's tail is a cutover this node durably passed
				// through before crashing: the placement carries the target
				// strategy, so boot it — cfg.Strategy still names the old
				// one and that is expected, not an operator mistake.
				cfg.Strategy = tag
				r.cfg.Strategy = tag
				snapshot = plcRec.Map
				r.recovered = &plcRec
				r.epoch, r.round = plcRec.Epoch, plcRec.Round
				if migNewer {
					r.epoch, r.round = migRaw.Epoch, migRaw.Round
				}
				r.recoveredMig = migrate.Committed.String()
				cfg.logf("node %d: journal records a committed migration %s -> %s; booting %q", cfg.ID, migRec.From, migRec.To, tag)
			case haveMig && migRec.From == tag && migRec.Phase.InFlight():
				// The placement tag names the SOURCE of an open migration:
				// an earlier cutover left cfg.Strategy stale (the journal,
				// not the config, tracks strategy across restarts) and the
				// crash landed mid-way through the next migration. Boot
				// what the journal serves and resume the phase.
				cfg.Strategy = tag
				r.cfg.Strategy = tag
				snapshot = plcRec.Map
				r.recovered = &plcRec
				r.epoch, r.round = plcRec.Epoch, plcRec.Round
				if migNewer {
					r.epoch, r.round = migRaw.Epoch, migRaw.Round
				}
				resumeMig = &migRec
				cfg.logf("node %d: journal serves %q with an open migration %s -> %s; resuming", cfg.ID, tag, migRec.From, migRec.To)
			default:
				// A journaled placement from a different strategy with no
				// migration explaining it is rejected, not adopted: the
				// operator either pointed the node at the wrong journal or
				// changed Config.Strategy without wiping durable state.
				return nil, fmt.Errorf("cluster: node %d: journaled placement carries strategy %q, configured %q", cfg.ID, tag, cfg.Strategy)
			}
		case haveMig:
			// Migration records but no placement yet (the journal was
			// compacted down to an in-flight migration, or the node
			// crashed before its first install): bootstrap from
			// cfg.Snapshot and resume the phase.
			if migRec.Phase.InFlight() && migRec.From == cfg.Strategy {
				resumeMig = &migRec
				r.epoch, r.round = migRaw.Epoch, migRaw.Round
			}
		}
	}
	node, err := delegate.NewNodeWithOptions(cfg.ID, snapshot, cfg.placementOptions(), nodeTransport{r})
	if err != nil {
		if r.recovered != nil {
			return nil, fmt.Errorf("cluster: node %d: journaled placement unusable: %w", cfg.ID, err)
		}
		return nil, err
	}
	if r.recovered != nil {
		node.Resume(r.recovered.Epoch, r.recovered.Round)
		cfg.logf("node %d: resumed from journal at epoch %d round %d", cfg.ID, r.recovered.Epoch, r.recovered.Round)
	}
	r.node = node
	now := time.Now()
	if resumeMig != nil {
		r.resumeMigration(*resumeMig, now)
	}
	s := node.Placement().Clone()
	r.placement.Store(&s)
	r.roundStart, r.lastMapTime = now, now
	r.wg.Add(3)
	go r.recvLoop()
	go r.heartbeatLoop()
	go r.roundLoop()
	return r, nil
}

// Stop halts the runtime and closes its transport. It is idempotent.
func (r *Runtime) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	close(r.stop)
	r.tr.Close()
	r.wg.Wait()
}

// recvLoop dispatches inbound messages until the transport or runtime
// stops.
func (r *Runtime) recvLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case msg, ok := <-r.tr.Recv():
			if !ok {
				return
			}
			r.handle(msg)
		}
	}
}

// handle processes one inbound message: liveness bookkeeping, protocol
// routing, and epoch/round gossip.
func (r *Runtime) handle(msg delegate.Message) {
	now := time.Now()
	r.mu.Lock()
	r.lastSeen[msg.From] = now
	// Epoch gossip: the view epoch is a cluster-wide maximum carried on
	// every message, so a node that slept through a re-election learns
	// the new epoch from the first heartbeat it receives.
	if msg.Epoch > r.epoch {
		r.epoch = msg.Epoch
	}
	// Migration gossip: mirror the delegate's FlagMigrating bit so
	// operators can watch a cutover propagate through Stats.
	if msg.From == r.curDelegate {
		r.delegateMigrating = msg.Flags&FlagMigrating != 0
	}
	switch msg.Kind {
	case MsgHeartbeat:
		r.counters.HeartbeatsReceived++
	case delegate.MsgReport:
		r.counters.ReportsReceived++
		r.enqueueLocked(msg)
		if msg.Round == r.round {
			select {
			case r.reportWake <- struct{}{}:
			default: // a wakeup is already pending; it covers this report
			}
		}
	case delegate.MsgMap:
		r.enqueueLocked(msg)
		applied := r.collectLocked(now)
		if applied {
			r.counters.MapsInstalled++
			r.lastMapTime = now
			install := now.Sub(r.roundStart).Seconds()
			r.counters.InstallLatency.Add(install)
			r.counters.InstallLatencyHist.Add(install)
			r.publishPlacementLocked()
		}
	case MsgMigratePropose, MsgMigrateWarm, MsgMigrateCommit, MsgMigrateAbort, MsgMigrateAck:
		r.handleMigrateLocked(msg, now)
	default:
		// Unknown kinds are dropped at the runtime boundary; the
		// protocol node only ever sees MsgReport and MsgMap.
	}
	// Round gossip: adopt a newer round and report into it at once —
	// followers are paced by the delegate's announcements, not their
	// own timers. The report itself is sent by observeAndReport after
	// the lock is released, because sampling calls the user's observer.
	reportTo := delegate.NodeID(-1)
	var reportEpoch, reportRound uint64
	if msg.Round > r.round {
		r.round = msg.Round
		r.roundStart = now
		if del, ok := lowestID(r.viewLocked(now)); ok && del != r.cfg.ID {
			reportTo, reportEpoch, reportRound = del, r.epoch, r.round
		}
	}
	out := r.takeOutboxLocked()
	rec := r.takeJournalLocked()
	r.mu.Unlock()
	r.sendAll(out)
	r.flushJournal(rec)
	if reportTo >= 0 {
		r.observeAndReport(reportTo, reportEpoch, reportRound)
	}
}

// observeAndReport samples local performance and sends the report for
// the given round. The observer runs without the runtime lock — it may
// call back into Stats or the lookup path — so the report is only sent
// if the round is still current when the lock is retaken.
func (r *Runtime) observeAndReport(to delegate.NodeID, epoch, round uint64) {
	requests, latency := r.sample()
	r.mu.Lock()
	if r.stopped || r.round != round {
		r.mu.Unlock()
		return
	}
	r.node.Observe(requests, latency)
	r.counters.SampleLatencyHist.Add(latency)
	r.node.SendReport(to, epoch, round)
	r.counters.ReportsSent++
	out := r.takeOutboxLocked()
	r.mu.Unlock()
	r.sendAll(out)
}

// sample invokes the configured observer against the published
// placement snapshot, outside the runtime lock.
func (r *Runtime) sample() (requests uint64, meanLatencySeconds float64) {
	if r.cfg.Observe == nil {
		return 0, 0
	}
	return r.cfg.Observe(*r.placement.Load(), r.cfg.ID)
}

// enqueueLocked buffers a protocol message for the node, shedding the
// oldest backlog beyond maxMailbox.
func (r *Runtime) enqueueLocked(msg delegate.Message) {
	r.mbox = append(r.mbox, msg)
	if len(r.mbox) > maxMailbox {
		r.mbox = append([]delegate.Message(nil), r.mbox[len(r.mbox)-maxMailbox:]...)
	}
}

// heartbeatLoop beacons liveness (and the current round) to all peers.
func (r *Runtime) heartbeatLoop() {
	defer r.wg.Done()
	r.sendHeartbeats()
	tick := time.NewTicker(r.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.sendHeartbeats()
		}
	}
}

// sendHeartbeats beacons one heartbeat to every peer through the
// broadcast fan-out.
func (r *Runtime) sendHeartbeats() {
	r.mu.Lock()
	epoch, round := r.epoch, r.round
	flags := r.migFlagsLocked()
	r.counters.HeartbeatsSent += uint64(len(r.cfg.Members) - 1)
	r.mu.Unlock()
	r.broadcast(delegate.Message{Kind: MsgHeartbeat, Flags: flags, From: r.cfg.ID, Epoch: epoch, Round: round})
}

// roundLoop drives the wall-clock tuning cadence.
func (r *Runtime) roundLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.RoundInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.tick()
		}
	}
}

// tick runs one timer beat: election over the observed view, the
// round watchdog, and — when this node is the delegate — starting a
// new round.
func (r *Runtime) tick() {
	now := time.Now()
	r.mu.Lock()
	view := r.viewLocked(now)
	del, _ := lowestID(view) // view always contains self
	// Watchdog: heartbeats without placement maps are not progress.
	// If the delegate has produced nothing for WatchdogRounds
	// intervals, suspect it so election moves to the next id.
	watchdog := time.Duration(r.cfg.WatchdogRounds) * r.cfg.RoundInterval
	if del != r.cfg.ID && now.Sub(r.lastMapTime) > watchdog {
		r.suspectUntil[del] = now.Add(r.cfg.FailAfter)
		r.counters.WatchdogTrips++
		r.lastMapTime = now // restart the clock; suspect one rank at a time
		r.cfg.logf("node %d: watchdog: no map for %v, suspecting delegate %d", r.cfg.ID, watchdog, del)
		view = r.viewLocked(now)
		del, _ = lowestID(view)
	}
	if del != r.curDelegate {
		if r.curDelegate >= 0 {
			r.counters.Reelections++
			r.cfg.logf("node %d: delegate %d -> %d", r.cfg.ID, r.curDelegate, del)
		}
		if del == r.cfg.ID {
			// This node is taking over as delegate: open a new view
			// epoch so every map the previous delegate may still have
			// in flight is fenced out by (epoch, round) ordering.
			r.epoch++
		}
		r.curDelegate = del
	}
	isDelegate := del == r.cfg.ID
	r.migrateTickLocked(now)
	var epoch, round uint64
	if isDelegate {
		// This node paces the cluster: open the round, announce it to
		// peers, and tune after the grace window. The self-sample runs
		// after the lock is released (the observer may call back in).
		r.round++
		epoch, round = r.epoch, r.round
		r.roundStart = now
		flags := r.migFlagsLocked()
		for _, id := range r.cfg.Members {
			if id == r.cfg.ID {
				continue
			}
			r.outbox = append(r.outbox, delegate.Message{Kind: MsgHeartbeat, Flags: flags, From: r.cfg.ID, To: id, Epoch: epoch, Round: round})
		}
		r.counters.HeartbeatsSent += uint64(len(r.cfg.Members) - 1)
	}
	out := r.takeOutboxLocked()
	recs := r.takeJournalLocked()
	r.mu.Unlock()
	r.sendAll(out)
	r.flushJournal(recs)
	if !isDelegate {
		return
	}
	requests, latency := r.sample()
	r.mu.Lock()
	if r.stopped || r.round != round || r.epoch != epoch || r.curDelegate != r.cfg.ID {
		r.mu.Unlock()
		return // superseded while sampling
	}
	r.node.Observe(requests, latency)
	r.counters.SampleLatencyHist.Add(latency)
	// tick runs on the wg-counted roundLoop goroutine, so the counter
	// cannot reach zero before this Add.
	r.wg.Add(1)
	r.reportWake = make(chan struct{}, 1)
	go r.tune(epoch, round, now, r.reportWake)
	r.mu.Unlock()
}

// tune waits for the round's reports, then rescales and sends the new
// map to every other member as the round's delegate. The wait wakes on
// report arrival (wake, signalled by handle) and ends at the first of:
//   - every peer in the live view has reported;
//   - the straggler cutoff: once Quorum reports are in at elapsed time
//     t_q after the round opened, the rest get as long again, 2·t_q;
//   - ReportGrace after the round opened.
func (r *Runtime) tune(epoch, round uint64, opened time.Time, wake <-chan struct{}) {
	defer r.wg.Done()
	cutoff := r.cfg.ReportGrace
	timer := time.NewTimer(cutoff - time.Since(opened))
	defer timer.Stop()
	quorate := false
wait:
	for {
		now := time.Now()
		r.mu.Lock()
		if r.round != round || r.epoch != epoch || r.curDelegate != r.cfg.ID {
			r.mu.Unlock()
			return // superseded by a newer round, epoch, or re-election
		}
		if r.collectLocked(now) {
			r.publishPlacementLocked()
		}
		got := r.node.PendingReports() + 1 // + the delegate's own sample
		all := got >= r.viewSizeLocked(now)
		recs := r.takeJournalLocked()
		r.mu.Unlock()
		r.flushJournal(recs)
		if all {
			break
		}
		if !quorate && got >= r.cfg.Quorum {
			quorate = true
			if tq := now.Sub(opened); 2*tq < cutoff {
				// The cutoff only ever moves earlier, so a tick the old
				// deadline may already have fired is due under the new
				// one too.
				cutoff = 2 * tq
				timer.Reset(cutoff - time.Since(opened))
			}
		}
		select {
		case <-r.stop:
			return
		case <-wake:
		case <-timer.C:
			break wait
		}
	}
	now := time.Now()
	r.mu.Lock()
	if r.round != round || r.epoch != epoch || r.curDelegate != r.cfg.ID {
		r.mu.Unlock()
		return
	}
	if r.collectLocked(now) {
		r.publishPlacementLocked()
	}
	members := r.tuneMembersLocked(now)
	r.counters.ReportsPerTune.Add(float64(r.node.PendingReports() + 1))
	snapshot, err := r.node.Rescale(epoch, round, members)
	if err != nil {
		r.cfg.logf("node %d: tune round %d: %v", r.cfg.ID, round, err)
	} else {
		r.counters.Tunes++
		r.lastMapTime = now
		r.publishPlacementLocked()
	}
	out := r.takeOutboxLocked()
	rec := r.takeJournalLocked()
	r.mu.Unlock()
	r.sendAll(out)
	if err == nil {
		// Every other member gets the map, not just the tuned set: a
		// live peer whose report missed the window was tuned as idle, and
		// it must still install the round it is serving under.
		r.broadcast(delegate.Message{Kind: delegate.MsgMap, From: r.cfg.ID, Epoch: epoch, Round: round, Payload: snapshot})
	}
	r.flushJournal(rec)
}

// tuneMembersLocked chooses the member set the delegate tunes over:
// itself, every peer that reported this round, and every peer silent
// beyond FailAfter (which Rescale then marks failed, releasing its
// region to the survivors). A peer that is demonstrably alive but
// missed this report window is omitted — the controller treats it as
// idle instead of evicting it on one lost packet.
func (r *Runtime) tuneMembersLocked(now time.Time) []delegate.NodeID {
	reported := make(map[delegate.NodeID]bool)
	for _, id := range r.node.Reported() {
		reported[id] = true
	}
	members := make([]delegate.NodeID, 0, len(r.cfg.Members))
	for _, id := range r.cfg.Members {
		switch {
		case id == r.cfg.ID:
			members = append(members, id)
		case reported[id]:
			members = append(members, id)
		case now.Sub(r.lastSeen[id]) > r.cfg.FailAfter:
			members = append(members, id)
		}
	}
	return members
}

// viewLocked is the observed membership: self plus every peer heard
// from within FailAfter and not currently suspected by the watchdog.
func (r *Runtime) viewLocked(now time.Time) []delegate.NodeID {
	view := make([]delegate.NodeID, 0, len(r.cfg.Members))
	for _, id := range r.cfg.Members {
		if r.liveLocked(id, now) {
			view = append(view, id)
		}
	}
	return view
}

// viewSizeLocked is len(viewLocked(now)) without building the view.
func (r *Runtime) viewSizeLocked(now time.Time) int {
	n := 0
	for _, id := range r.cfg.Members {
		if r.liveLocked(id, now) {
			n++
		}
	}
	return n
}

// liveLocked reports whether member id is in the observed view at now,
// expiring a lapsed watchdog suspicion on the way.
func (r *Runtime) liveLocked(id delegate.NodeID, now time.Time) bool {
	if id == r.cfg.ID {
		return true
	}
	if until, ok := r.suspectUntil[id]; ok {
		if now.Before(until) {
			return false
		}
		delete(r.suspectUntil, id)
	}
	seen, ok := r.lastSeen[id]
	return ok && now.Sub(seen) <= r.cfg.FailAfter
}

// takeOutboxLocked drains staged outbound messages for sending
// outside the lock.
func (r *Runtime) takeOutboxLocked() []delegate.Message {
	out := r.outbox
	r.outbox = nil
	return out
}

// broadcast fans one message template out to every other member,
// stamping To per peer. On an AsyncTransport this is N bounded
// enqueues — the whole fan-out completes without blocking on any
// peer's socket.
func (r *Runtime) broadcast(msg delegate.Message) {
	for _, id := range r.cfg.Members {
		if id == r.cfg.ID {
			continue
		}
		msg.To = id
		r.sendOne(msg)
	}
}

// sendOne pushes one message to the transport: a non-blocking enqueue
// when the transport has an async lane, a synchronous Send otherwise.
// Failures are counted or logged, never fatal — an unreachable peer is
// indistinguishable from a lossy link, and a queue-full drop is healed
// by the protocol's own cadence (re-announced rounds, re-broadcast
// maps, migration retries) exactly like wire loss.
func (r *Runtime) sendOne(msg delegate.Message) {
	if r.atr != nil {
		if !r.atr.SendAsync(msg) {
			r.sendDrops.Add(1)
		}
		return
	}
	if err := r.tr.Send(msg); err != nil {
		r.cfg.logf("node %d: send to %d: %v", r.cfg.ID, msg.To, err)
	}
}

// sendAll pushes staged messages to the transport via sendOne.
func (r *Runtime) sendAll(msgs []delegate.Message) {
	for _, msg := range msgs {
		r.sendOne(msg)
	}
}

// lowestID returns the smallest id in view — the paper's election rule.
func lowestID(view []delegate.NodeID) (delegate.NodeID, bool) {
	if len(view) == 0 {
		return -1, false
	}
	best := view[0]
	for _, id := range view[1:] {
		if id < best {
			best = id
		}
	}
	return best, true
}

// ID returns the node's identity.
func (r *Runtime) ID() delegate.NodeID { return r.cfg.ID }

// Round returns the node's current round.
func (r *Runtime) Round() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round
}

// Epoch returns the node's current view epoch.
func (r *Runtime) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// MapEpoch returns the view epoch of the installed map (monotonic).
func (r *Runtime) MapEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.MapEpoch()
}

// Delegate returns the node's current view of the delegate (-1 before
// the first election).
func (r *Runtime) Delegate() delegate.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.curDelegate
}

// Fingerprint digests the node's replicated state for convergence
// checks.
func (r *Runtime) Fingerprint() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Fingerprint()
}

// MapRound returns the round of the installed map (monotonic).
func (r *Runtime) MapRound() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.MapRound()
}

// MapState returns the installed map's identity — view epoch, round,
// and fingerprint — as one atomic observation. Coherence monitors need
// the triple under a single lock acquisition: reading the three
// accessors separately can straddle an install and pair one map's
// round with its successor's fingerprint.
func (r *Runtime) MapState() (epoch, round, fingerprint uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.MapEpoch(), r.node.MapRound(), r.node.Fingerprint()
}

// publishPlacementLocked snapshots the node's current map into the
// lock-free data plane and, with a journal configured, stages the
// placement for a durable append. Must be called with r.mu held, after
// any protocol step that installed or produced a new placement. The
// clone is immutable once stored: readers share it, the protocol never
// touches it again.
func (r *Runtime) publishPlacementLocked() {
	s := r.node.Placement().Clone()
	r.placement.Store(&s)
	if r.cfg.Journal != nil {
		r.journalStage = append(r.journalStage, journal.Record{
			Epoch: r.node.MapEpoch(),
			Round: r.node.MapRound(),
			Map:   r.node.Placement().Encode(),
		})
	}
}

// takeJournalLocked drains the staged journal records for flushing
// outside the lock.
func (r *Runtime) takeJournalLocked() []journal.Record {
	recs := r.journalStage
	r.journalStage = nil
	return recs
}

// flushJournal appends staged records in order, fsyncing, outside the
// runtime lock so disk latency never stalls the protocol. Append's
// internal monotone guard makes concurrent flushes safe regardless of
// order; a failure is counted and logged — the in-memory placement is
// already live, so the node keeps serving and retries durability on
// the next install.
func (r *Runtime) flushJournal(recs []journal.Record) {
	for _, rec := range recs {
		if err := r.cfg.Journal.Append(rec); err != nil {
			r.cfg.logf("node %d: journal append (epoch %d round %d): %v", r.cfg.ID, rec.Epoch, rec.Round, err)
			r.mu.Lock()
			r.counters.JournalAppendErrors++
			r.mu.Unlock()
		}
	}
}

// Lookup routes a key on the node's current placement snapshot. It is
// the data-plane entry point: lock-free, it never contends with
// heartbeats, report collection, or tuning. The boolean is false only
// when every server in the placement has failed.
func (r *Runtime) Lookup(key string) (anu.ServerID, bool) {
	return (*r.placement.Load()).Lookup(key)
}

// LookupDigest is Lookup for a key pre-hashed with hashx.Prehash. Only
// digest-capable strategies (ANU) resolve it; others return false —
// digest callers are ANU fast-path callers by construction.
func (r *Runtime) LookupDigest(d hashx.Digest) (anu.ServerID, bool) {
	dl, ok := (*r.placement.Load()).(placement.DigestLookuper)
	if !ok {
		return anu.NoServer, false
	}
	id, _ := dl.LookupDigest(d)
	return id, id != anu.NoServer
}

// LookupBatch resolves keys[i] into owners[i] against one placement
// snapshot (a concurrent map install never splits a batch), returning
// the number of keys that resolved. Unresolved entries are set to
// anu.NoServer. owners must be at least as long as keys.
func (r *Runtime) LookupBatch(keys []string, owners []anu.ServerID) int {
	if len(owners) < len(keys) {
		panic(fmt.Sprintf("cluster: LookupBatch: %d owners for %d keys", len(owners), len(keys)))
	}
	return (*r.placement.Load()).LookupBatch(keys, owners)
}

// Placement returns a copy of the node's placement strategy.
func (r *Runtime) Placement() placement.Strategy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Placement().Clone()
}

// Strategy returns the registered tag of the node's placement strategy.
func (r *Runtime) Strategy() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Strategy()
}

// Map returns a copy of the node's ANU placement map, or nil when the
// node runs a non-ANU strategy.
func (r *Runtime) Map() *anu.Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.node.Map(); m != nil {
		return m.Clone()
	}
	return nil
}

// Snapshot returns the encoded placement — what a restarting peer
// bootstraps from. The bytes carry the strategy tag.
func (r *Runtime) Snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node.Placement().Encode()
}

// View returns the node's observed live membership.
func (r *Runtime) View() []delegate.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.viewLocked(time.Now())
}

// String identifies the runtime in logs.
func (r *Runtime) String() string {
	return fmt.Sprintf("cluster.Runtime(node %d)", r.cfg.ID)
}
