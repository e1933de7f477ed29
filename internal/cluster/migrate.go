package cluster

// Live strategy migration: the runtime-level driver for the
// epoch-fenced cutover state machine of package migrate.
//
//	Idle -> Proposed -> DualTag -> Committed
//	              \         \
//	               +---------+--> Aborted (rollback to the old placement)
//
// The cluster's current delegate is the migration leader. It proposes
// the target strategy to every member, and once a quorum acknowledges
// it builds the target placement ("warming" it while the old one keeps
// serving every lookup), ships it to the members, and — after a quorum
// holds the warm snapshot behind an open dual-tag window — commits by
// bumping the view epoch and pushing the warm placement through the
// ordinary fenced install path. The flip on every node is therefore a
// single atomic snapshot publish; at no instant does any lookup see a
// torn or mixed placement, and a crash at any point recovers from the
// journal to either the old or the new placement, never between them.
//
// Every phase edge is journaled before it is acknowledged, each phase
// carries a deadline and the leader re-broadcasts to unacked members,
// and any failure — quorum loss, warm-up timeout, an undecodable
// target snapshot, a re-election mid-flight — rolls the cluster back:
// dual-tag windows close, the Aborted record is journaled, and the old
// placement (which never stopped serving) simply remains current.
//
// Crash-recovery table (what Start does with the journal's newest
// migration record; "plc" is the newest placement record):
//
//	phase     | relation to plc            | outcome on restart
//	----------+----------------------------+-----------------------------------
//	Proposed  | newer, From == plc tag     | resume Proposed; leader retry or
//	          |                            | deadline settles it
//	DualTag   | newer, From == plc tag     | reopen the window with the
//	          |                            | journaled warm snapshot; commit or
//	          |                            | rollback arrives or deadline fires
//	Committed | newer, From == plc tag     | commit decided but the new
//	          | (placement append lost)    | placement was not persisted: open a
//	          |                            | catch-up window; the cluster's next
//	          |                            | map either flips or the deadline
//	          |                            | closes it
//	DualTag/  | plc carries To             | cutover complete: boot the new
//	Committed |                            | strategy (cfg.Strategy names the
//	          |                            | old one; that is expected)
//	Aborted   | any                        | history; boot plc normally
import (
	"fmt"
	"slices"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/migrate"
	"anurand/internal/placement"
)

// Migration message kinds. Like MsgHeartbeat they ride the delegate
// wire format with kinds outside the protocol range: the runtime
// consumes them itself and the protocol node never sees them. Every
// payload is a migrate.Record encoding.
const (
	// MsgMigratePropose announces a migration: leader -> members.
	MsgMigratePropose delegate.MsgKind = 0x20
	// MsgMigrateWarm ships the warm target snapshot (a DualTag record):
	// leader -> members.
	MsgMigrateWarm delegate.MsgKind = 0x21
	// MsgMigrateCommit orders the cutover: leader -> members.
	MsgMigrateCommit delegate.MsgKind = 0x22
	// MsgMigrateAbort orders rollback: leader -> members.
	MsgMigrateAbort delegate.MsgKind = 0x23
	// MsgMigrateAck acknowledges the sender's phase: member -> leader.
	// A record with Phase == Aborted is a nack and aborts the whole
	// migration.
	MsgMigrateAck delegate.MsgKind = 0x24
)

// migration is the in-flight migration state, guarded by Runtime.mu.
type migration struct {
	phase migrate.Phase
	rec   migrate.Record // ID/From/To of this attempt (Snapshot stays empty here)
	warm  []byte         // encoded target placement, nil until warmed
	// leader is true on the node driving the migration (the delegate
	// that accepted Migrate).
	leader bool
	// proposer is the leader's id as this node knows it; -1 after a
	// journal resume, when the proposer is unknown and only the
	// deadline or explicit messages can settle the phase.
	proposer delegate.NodeID
	// acks maps member -> highest phase acknowledged (leader only).
	acks       map[delegate.NodeID]migrate.Phase
	start      time.Time // when this node first saw the migration
	phaseStart time.Time // when the current phase began
	deadline   time.Time // rollback fires here
	lastSend   time.Time // leader: last broadcast, paces retries
}

// migrationLinger is the leader's post-commit catch-up state: for one
// MigrateTimeout after the cutover, members that have not acknowledged
// Committed keep receiving the commit order, so a node that crashed
// through the dual-tag window (or locally rolled back moments before
// the commit) still opens a catch-up window and flips on the next
// delegate map instead of being stranded on the old strategy.
type migrationLinger struct {
	rec      migrate.Record // the Committed record
	acks     map[delegate.NodeID]migrate.Phase
	deadline time.Time
	lastSend time.Time
}

// Migrate starts a live migration of the whole cluster from its
// current placement strategy to the named target. It must be called on
// the current delegate (migration leadership follows cluster
// leadership). It runs on the runtime's goroutine, like every other
// protocol step, and returns the migration id once the messages and
// journal records it staged are sent and flushed: a one-member quorum
// has cut over by then; otherwise progress is asynchronous and
// observable through MigrationPhase and Stats. The data plane keeps
// serving lock-free lookups from the old placement throughout; the flip
// to the target is one atomic snapshot publish per node, and any
// failure rolls back to the old placement.
func (r *Runtime) Migrate(to string) (id uint64, err error) {
	if !slices.Contains(placement.Names(), to) {
		return 0, fmt.Errorf("cluster: node %d: unknown strategy %q", r.cfg.ID, to)
	}
	done := make(chan struct{})
	select {
	case r.calls <- func(now time.Time) { id, err = r.migrate(to, now); close(done) }:
	case <-r.stop:
		return 0, fmt.Errorf("cluster: node %d: runtime stopped", r.cfg.ID)
	}
	<-done
	return id, err
}

// migrate is Migrate's body, run on the loop.
func (r *Runtime) migrate(to string, now time.Time) (uint64, error) {
	r.mu.Lock()
	if r.curDelegate != r.cfg.ID {
		r.mu.Unlock()
		return 0, fmt.Errorf("cluster: node %d: not the delegate (delegate is %d)", r.cfg.ID, r.curDelegate)
	}
	from := r.node.Strategy()
	if from == to {
		r.mu.Unlock()
		return 0, fmt.Errorf("cluster: node %d: already running strategy %q", r.cfg.ID, to)
	}
	if r.mig != nil {
		id := r.mig.rec.ID
		r.mu.Unlock()
		return 0, fmt.Errorf("cluster: node %d: migration %d already in flight", r.cfg.ID, id)
	}
	r.migSeq++
	id := r.epoch<<16 | r.migSeq&0xffff // unique across leaders: epochs differ per accession
	m := &migration{
		phase:      migrate.Proposed,
		rec:        migrate.Record{Phase: migrate.Proposed, ID: id, From: from, To: to},
		leader:     true,
		proposer:   r.cfg.ID,
		acks:       make(map[delegate.NodeID]migrate.Phase),
		start:      now,
		phaseStart: now,
		deadline:   now.Add(r.cfg.MigrateTimeout),
		lastSend:   now,
	}
	r.mig = m
	r.counters.MigrationsStarted++
	r.stageMigrationLocked(m.rec)
	r.broadcastMigrationLocked(MsgMigratePropose, m.rec)
	r.cfg.logf("node %d: migration %d: proposing %s -> %s", r.cfg.ID, id, from, to)
	// A one-member quorum needs no acks; advance immediately.
	r.migrateAdvanceLocked(now)
	r.unlockAndFlush()
	return id, nil
}

// MigrationPhase reports the in-flight migration (Idle when none) and
// its id.
func (r *Runtime) MigrationPhase() (migrate.Phase, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mig == nil {
		return migrate.Idle, 0
	}
	return r.mig.phase, r.mig.rec.ID
}

// migFlagsLocked is the flags byte stamped on outbound frames: the
// FlagMigrating gossip bit while a migration is in flight here.
func (r *Runtime) migFlagsLocked() uint8 {
	if r.mig != nil {
		return FlagMigrating
	}
	return 0
}

// stageMigrationLocked stages a migration phase record for the
// journal at the current fence. (r.epoch, r.round) never trails the
// installed map's fence, so the journal's monotone guard accepts it.
func (r *Runtime) stageMigrationLocked(rec migrate.Record) {
	if r.cfg.Journal == nil {
		return
	}
	r.journalStage = append(r.journalStage, journal.Record{
		Epoch: r.epoch,
		Round: r.round,
		Map:   rec.Encode(),
	})
}

// broadcastMigrationLocked stages one migration message per peer.
func (r *Runtime) broadcastMigrationLocked(kind delegate.MsgKind, rec migrate.Record) {
	r.stageToPeersLocked(delegate.Message{
		Kind: kind, Flags: FlagMigrating, From: r.cfg.ID,
		Epoch: r.epoch, Round: r.round, Payload: rec.Encode(),
	}, nil)
}

// ackMigrationLocked stages a phase acknowledgement to the proposer.
// phase == migrate.Aborted is a nack.
func (r *Runtime) ackMigrationLocked(to delegate.NodeID, rec migrate.Record, phase migrate.Phase) {
	ack := migrate.Record{Phase: phase, ID: rec.ID, From: rec.From, To: rec.To}
	r.outbox = append(r.outbox, delegate.Message{
		Kind: MsgMigrateAck, Flags: r.migFlagsLocked(), From: r.cfg.ID, To: to,
		Epoch: r.epoch, Round: r.round, Payload: ack.Encode(),
	})
}

// receiveLocked hands one protocol message to the node at the current
// round and watches for the dual-tag cutover: an install that switched
// the node's strategy is the atomic flip, so the migration is finalized
// (journaled Committed, counted) in the same critical section. Every
// message the runtime gives the node goes through here — the flip must
// be observed whichever path (map handling or the migration's own warm
// install) delivered it. A rejected message is logged and affects
// nothing else.
func (r *Runtime) receiveLocked(msg delegate.Message, now time.Time) (installed bool) {
	before := r.node.Strategy()
	installed, err := r.node.Receive(msg, r.round)
	if err != nil {
		r.cfg.logf("node %d: %v", r.cfg.ID, err)
	}
	if installed && r.node.Strategy() != before {
		r.finalizeMigrationLocked(now, before)
	}
	return installed
}

// finalizeMigrationLocked records a completed cutover: the node's
// installed placement now carries the target strategy. Journals the
// Committed record at the install fence and retires the in-flight
// state. from is the strategy the node ran before the flip.
func (r *Runtime) finalizeMigrationLocked(now time.Time, from string) {
	rec := migrate.Record{Phase: migrate.Committed, From: from, To: r.node.Strategy()}
	if m := r.mig; m != nil {
		rec.ID = m.rec.ID
		r.counters.MigratePhaseLatencyHist.Add(now.Sub(m.phaseStart).Seconds())
		r.counters.MigrateLatencyHist.Add(now.Sub(m.start).Seconds())
		if m.leader {
			r.migLinger = &migrationLinger{
				rec:      rec,
				acks:     m.acks,
				deadline: now.Add(r.cfg.MigrateTimeout),
				lastSend: now,
			}
		}
	}
	if r.cfg.Journal != nil {
		r.journalStage = append(r.journalStage, journal.Record{
			Epoch: r.node.MapEpoch(),
			Round: r.node.MapRound(),
			Map:   rec.Encode(),
		})
	}
	r.counters.MigrationsCommitted++
	r.mig = nil
	r.cfg.logf("node %d: migration %d: committed %s -> %s at epoch %d round %d",
		r.cfg.ID, rec.ID, rec.From, rec.To, r.node.MapEpoch(), r.node.MapRound())
}

// abortMigrationLocked rolls the node back to the old placement: the
// dual-tag window closes (making the target tag poison again), the
// Aborted record is journaled, and — when this node leads and
// broadcast is set — every member is told to do the same. The old
// placement never stopped serving, so no lookup is dropped.
func (r *Runtime) abortMigrationLocked(now time.Time, reason string, broadcast bool) {
	m := r.mig
	if m == nil {
		return
	}
	r.node.CloseDualTag()
	rec := m.rec
	rec.Phase = migrate.Aborted
	rec.Snapshot = nil
	r.stageMigrationLocked(rec)
	if broadcast {
		r.broadcastMigrationLocked(MsgMigrateAbort, rec)
	}
	r.counters.MigrationsAborted++
	r.counters.MigratePhaseLatencyHist.Add(now.Sub(m.phaseStart).Seconds())
	r.mig = nil
	r.cfg.logf("node %d: migration %d: aborted in %s (%s)", r.cfg.ID, rec.ID, m.phase, reason)
}

// migrateTickLocked runs the migration watchdog each round tick:
// deadlines, leader retries, quorum checks, and rollback triggers.
func (r *Runtime) migrateTickLocked(now time.Time) {
	m := r.mig
	if m == nil {
		r.migrateLingerTickLocked(now)
		return
	}
	if m.leader {
		if r.curDelegate != r.cfg.ID {
			// Deposed mid-migration (watchdog or a lower id returning):
			// the new delegate will not continue this attempt, so tear it
			// down everywhere rather than leave windows open.
			r.abortMigrationLocked(now, "leader deposed", true)
			return
		}
		if len(r.viewLocked(now)) < r.cfg.Quorum {
			r.abortMigrationLocked(now, "quorum lost", true)
			return
		}
		if now.After(m.deadline) {
			r.abortMigrationLocked(now, fmt.Sprintf("%s phase timed out", m.phase), true)
			return
		}
		r.migrateAdvanceLocked(now)
		if m == r.mig && now.Sub(m.lastSend) >= r.cfg.MigrateRetry {
			r.migrateRetryLocked(now)
		}
		return
	}
	// Follower watchdog: a phase that outlives its deadline rolls back
	// locally — the leader is gone or unreachable, and serving the old
	// placement is always safe. Likewise a re-election away from the
	// proposer: the new delegate knows nothing of this attempt.
	if now.After(m.deadline) {
		r.abortMigrationLocked(now, fmt.Sprintf("%s phase timed out", m.phase), false)
		return
	}
	if m.proposer >= 0 && r.curDelegate >= 0 && r.curDelegate != m.proposer {
		r.abortMigrationLocked(now, fmt.Sprintf("delegate moved %d -> %d mid-migration", m.proposer, r.curDelegate), false)
		return
	}
	if m.proposer < 0 && r.curDelegate == r.cfg.ID && len(r.viewLocked(now)) >= r.cfg.Quorum {
		// A journal-resumed phase whose proposer is unknown, on the node
		// the cluster now elects as delegate: leadership state was never
		// durable, so nobody can be driving this attempt — waiting out
		// the deadline would only block the next Migrate. Roll back now;
		// serving the old placement is always safe. The quorum-view
		// condition keeps a just-restarted node (whose view is only
		// itself for the first heartbeat interval) from tearing down a
		// window its true leader is still driving.
		r.abortMigrationLocked(now, "resumed migration with no live proposer", false)
	}
}

// migrateLingerTickLocked drives the post-commit catch-up: keep
// re-sending the commit order to members that have not acknowledged it
// until everyone has (or the window closes).
func (r *Runtime) migrateLingerTickLocked(now time.Time) {
	l := r.migLinger
	if l == nil {
		return
	}
	if now.After(l.deadline) || r.curDelegate != r.cfg.ID {
		r.migLinger = nil
		return
	}
	pending := false
	for _, id := range r.cfg.Members {
		if id != r.cfg.ID && l.acks[id] < migrate.Committed {
			pending = true
			break
		}
	}
	if !pending {
		r.migLinger = nil
		return
	}
	if now.Sub(l.lastSend) < r.cfg.MigrateRetry {
		return
	}
	l.lastSend = now
	r.stageToPeersLocked(delegate.Message{
		Kind: MsgMigrateCommit, From: r.cfg.ID,
		Epoch: r.epoch, Round: r.round, Payload: l.rec.Encode(),
	}, func(id delegate.NodeID) bool { return l.acks[id] >= migrate.Committed })
}

// migrateRetryLocked re-broadcasts the current phase to members that
// have not acknowledged it (leader only).
func (r *Runtime) migrateRetryLocked(now time.Time) {
	m := r.mig
	m.lastSend = now
	kind := MsgMigratePropose
	rec := m.rec
	if m.phase == migrate.DualTag {
		kind = MsgMigrateWarm
		rec.Phase = migrate.DualTag
		rec.Snapshot = m.warm
	}
	r.stageToPeersLocked(delegate.Message{
		Kind: kind, Flags: FlagMigrating, From: r.cfg.ID,
		Epoch: r.epoch, Round: r.round, Payload: rec.Encode(),
	}, func(id delegate.NodeID) bool { return m.acks[id] >= m.phase })
}

// migrateAckCountLocked counts members (including the leader itself)
// whose acknowledged phase has reached the current one.
func (r *Runtime) migrateAckCountLocked() int {
	m := r.mig
	count := 1 // the leader holds its own phase by construction
	for _, phase := range m.acks {
		if phase >= m.phase {
			count++
		}
	}
	return count
}

// migrateAdvanceLocked moves the leader's migration forward when a
// quorum has acknowledged the current phase.
func (r *Runtime) migrateAdvanceLocked(now time.Time) {
	m := r.mig
	if m == nil || !m.leader {
		return
	}
	if r.migrateAckCountLocked() < r.cfg.Quorum {
		return
	}
	switch m.phase {
	case migrate.Proposed:
		r.enterDualTagLocked(now)
	case migrate.DualTag:
		r.commitMigrationLocked(now)
	}
}

// enterDualTagLocked builds ("warms") the target placement over the
// configured membership — members currently outside the live view are
// marked failed so the warm placement matches observed reality — opens
// the leader's own dual-tag window, journals the DualTag record with
// the warm snapshot, and ships it to every member. The old placement
// keeps serving the data plane untouched.
func (r *Runtime) enterDualTagLocked(now time.Time) {
	m := r.mig
	servers := make([]placement.ServerID, len(r.cfg.Members))
	copy(servers, r.cfg.Members)
	s, err := placement.New(m.rec.To, servers, r.cfg.placementOptions())
	if err != nil {
		r.abortMigrationLocked(now, fmt.Sprintf("warm-up failed: %v", err), true)
		return
	}
	live := make(map[delegate.NodeID]bool)
	for _, id := range r.viewLocked(now) {
		live[id] = true
	}
	for _, id := range r.cfg.Members {
		if !live[id] {
			if ferr := s.Fail(id); ferr != nil {
				r.cfg.logf("node %d: migration %d: warm-up fail(%d): %v", r.cfg.ID, m.rec.ID, id, ferr)
			}
		}
	}
	m.warm = s.Encode()
	m.phase = migrate.DualTag
	r.counters.MigratePhaseLatencyHist.Add(now.Sub(m.phaseStart).Seconds())
	m.phaseStart = now
	m.deadline = now.Add(r.cfg.MigrateTimeout)
	m.lastSend = now
	r.node.OpenDualTag(m.rec.To)
	rec := m.rec
	rec.Phase = migrate.DualTag
	rec.Snapshot = m.warm
	r.stageMigrationLocked(rec)
	r.broadcastMigrationLocked(MsgMigrateWarm, rec)
	r.cfg.logf("node %d: migration %d: dual-tag window open, warm %s placement staged (%d bytes)",
		r.cfg.ID, m.rec.ID, m.rec.To, len(m.warm))
	r.migrateAdvanceLocked(now) // a one-member quorum commits immediately
}

// commitMigrationLocked is the leader's cutover: bump the view epoch
// (fencing out every map the old strategy still has in flight) and
// push the warm placement through the ordinary fenced install path, so
// the leader's own flip is the same single atomic snapshot publish the
// followers perform. Then order every member to cut over.
func (r *Runtime) commitMigrationLocked(now time.Time) {
	m := r.mig
	r.epoch++
	r.tuneAt = time.Time{} // fenced out with the old epoch
	rec := m.rec
	rec.Phase = migrate.Committed
	r.counters.MigratePhaseLatencyHist.Add(now.Sub(m.phaseStart).Seconds())
	m.phaseStart = now
	warm := delegate.Message{Kind: delegate.MsgMap, From: r.cfg.ID, Epoch: r.epoch, Round: r.round, Payload: m.warm}
	if !r.receiveLocked(warm, now) || r.node.Strategy() != rec.To {
		// The warm install cannot lose the fence race (the epoch was
		// just bumped) and the warm snapshot was validated at DualTag
		// entry, so this is a bug guard, not a code path.
		r.abortMigrationLocked(now, "commit install rejected", true)
		return
	}
	// receiveLocked observed the flip and finalized (journaled the
	// Committed record, cleared r.mig); publish the flip to the data
	// plane and order the members over.
	r.lastMapTime = now
	r.publishPlacementLocked()
	r.broadcastMigrationLocked(MsgMigrateCommit, rec)
}

// handleMigrateLocked routes one inbound migration message. Called
// from handle with r.mu held; staged outbox/journal entries are
// flushed by handle after the lock is released.
func (r *Runtime) handleMigrateLocked(msg delegate.Message, now time.Time) {
	rec, err := migrate.Decode(msg.Payload)
	if err != nil {
		r.counters.MigrationMsgsRejected++
		r.cfg.logf("node %d: migration message from %d undecodable: %v", r.cfg.ID, msg.From, err)
		return
	}
	switch msg.Kind {
	case MsgMigratePropose:
		r.handleProposeLocked(msg, rec, now)
	case MsgMigrateWarm:
		r.handleWarmLocked(msg, rec, now)
	case MsgMigrateCommit:
		r.handleCommitLocked(msg, rec, now)
	case MsgMigrateAbort:
		if r.mig != nil && r.mig.rec.ID == rec.ID && !r.mig.leader {
			r.abortMigrationLocked(now, fmt.Sprintf("abort ordered by %d", msg.From), false)
		}
	case MsgMigrateAck:
		r.handleAckLocked(msg, rec, now)
	}
}

// handleProposeLocked is a member accepting (or rejecting) a proposal.
func (r *Runtime) handleProposeLocked(msg delegate.Message, rec migrate.Record, now time.Time) {
	if rec.Phase != migrate.Proposed {
		return
	}
	if m := r.mig; m != nil {
		if m.rec.ID == rec.ID {
			r.ackMigrationLocked(msg.From, rec, m.phase) // leader retry: re-ack where we are
			return
		}
		if m.leader {
			// Two live leaders proposing distinct migrations: refuse the
			// newcomer; epochs and the re-election watchdog will settle
			// who leads, and rollback cleans up the loser.
			r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
			return
		}
		// A newer proposal replaces a stale tracked attempt (its leader
		// is gone, or this state was resumed from the journal).
		r.abortMigrationLocked(now, fmt.Sprintf("superseded by migration %d from %d", rec.ID, msg.From), false)
	}
	if r.node.Strategy() != rec.From {
		r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
		return
	}
	r.mig = &migration{
		phase:      migrate.Proposed,
		rec:        migrate.Record{Phase: migrate.Proposed, ID: rec.ID, From: rec.From, To: rec.To},
		proposer:   msg.From,
		start:      now,
		phaseStart: now,
		deadline:   now.Add(r.cfg.MigrateTimeout),
	}
	r.stageMigrationLocked(r.mig.rec)
	r.ackMigrationLocked(msg.From, rec, migrate.Proposed)
	r.cfg.logf("node %d: migration %d: accepted proposal %s -> %s from %d", r.cfg.ID, rec.ID, rec.From, rec.To, msg.From)
}

// handleWarmLocked is a member receiving the warm target snapshot: it
// validates the snapshot, opens its dual-tag window, journals the
// DualTag record (snapshot included, so a crash here resumes with the
// warm bytes), and acks. A node that never saw the proposal enters
// directly — the dual-tag record carries everything needed.
func (r *Runtime) handleWarmLocked(msg delegate.Message, rec migrate.Record, now time.Time) {
	if rec.Phase != migrate.DualTag || len(rec.Snapshot) == 0 {
		return
	}
	if tag, terr := placement.Tag(rec.Snapshot); terr != nil || tag != rec.To {
		// The warm snapshot does not carry the promised strategy: nack
		// so the leader rolls the whole migration back.
		r.counters.MigrationMsgsRejected++
		r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
		r.cfg.logf("node %d: migration %d: warm snapshot tag mismatch (err=%v)", r.cfg.ID, rec.ID, terr)
		return
	}
	if _, derr := placement.Decode(rec.Snapshot, r.cfg.placementOptions()); derr != nil {
		r.counters.MigrationMsgsRejected++
		r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
		r.cfg.logf("node %d: migration %d: warm snapshot undecodable: %v", r.cfg.ID, rec.ID, derr)
		return
	}
	switch {
	case r.node.Strategy() == rec.To:
		// Already cut over (a retry raced the commit): report success.
		r.ackMigrationLocked(msg.From, rec, migrate.Committed)
		return
	case r.node.Strategy() != rec.From:
		r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
		return
	}
	m := r.mig
	if m != nil && m.rec.ID != rec.ID {
		if m.leader {
			r.ackMigrationLocked(msg.From, rec, migrate.Aborted)
			return
		}
		r.abortMigrationLocked(now, fmt.Sprintf("superseded by migration %d from %d", rec.ID, msg.From), false)
		m = nil
	}
	if m == nil {
		m = &migration{
			rec:        migrate.Record{ID: rec.ID, From: rec.From, To: rec.To},
			start:      now,
			phaseStart: now,
		}
		r.mig = m
	}
	if m.phase != migrate.DualTag {
		r.counters.MigratePhaseLatencyHist.Add(now.Sub(m.phaseStart).Seconds())
		m.phase = migrate.DualTag
		m.phaseStart = now
		r.stageMigrationLocked(rec) // snapshot included: a crash here resumes warm
	}
	m.warm = rec.Snapshot
	m.proposer = msg.From
	m.deadline = now.Add(r.cfg.MigrateTimeout)
	r.node.OpenDualTag(rec.To)
	r.ackMigrationLocked(msg.From, rec, migrate.DualTag)
	r.cfg.logf("node %d: migration %d: dual-tag window open for %s", r.cfg.ID, rec.ID, rec.To)
}

// handleCommitLocked is a member performing the cutover: install the
// warm placement through the node's open dual-tag window at the
// commit fence. A member holding no warm snapshot (it slept through
// the window) opens a catch-up window instead and flips on the new
// delegate map that must follow.
func (r *Runtime) handleCommitLocked(msg delegate.Message, rec migrate.Record, now time.Time) {
	if rec.Phase != migrate.Committed {
		return
	}
	if r.node.Strategy() == rec.To {
		r.ackMigrationLocked(msg.From, rec, migrate.Committed) // duplicate commit
		return
	}
	m := r.mig
	if m != nil && m.rec.ID == rec.ID && len(m.warm) > 0 {
		warm := delegate.Message{Kind: delegate.MsgMap, From: msg.From, Epoch: msg.Epoch, Round: msg.Round, Payload: m.warm}
		if r.receiveLocked(warm, now) {
			r.counters.MapsInstalled++
			r.lastMapTime = now
			r.publishPlacementLocked()
		}
		if r.node.Strategy() == rec.To {
			r.ackMigrationLocked(msg.From, rec, migrate.Committed)
		}
		return
	}
	// No warm snapshot (never saw the window, or a stale commit): open
	// a catch-up window so the next new-strategy map from the delegate
	// flips this node; the deadline closes it if nothing comes.
	r.node.OpenDualTag(rec.To)
	r.mig = &migration{
		phase:      migrate.DualTag,
		rec:        migrate.Record{ID: rec.ID, From: rec.From, To: rec.To},
		proposer:   msg.From,
		start:      now,
		phaseStart: now,
		deadline:   now.Add(r.cfg.MigrateTimeout),
	}
	r.cfg.logf("node %d: migration %d: commit seen without warm snapshot; catch-up window open for %s", r.cfg.ID, rec.ID, rec.To)
}

// handleAckLocked is the leader tallying member acknowledgements.
func (r *Runtime) handleAckLocked(msg delegate.Message, rec migrate.Record, now time.Time) {
	if l := r.migLinger; l != nil && l.rec.ID == rec.ID && rec.Phase > l.acks[msg.From] {
		l.acks[msg.From] = rec.Phase
	}
	m := r.mig
	if m == nil || !m.leader || m.rec.ID != rec.ID {
		return
	}
	if rec.Phase == migrate.Aborted {
		r.abortMigrationLocked(now, fmt.Sprintf("nacked by %d", msg.From), true)
		return
	}
	if rec.Phase > m.acks[msg.From] {
		m.acks[msg.From] = rec.Phase
	}
	r.migrateAdvanceLocked(now)
}

// resumeMigration rehydrates the in-flight migration a crash
// interrupted, from its journaled phase record. The proposer is
// unknown after a restart (-1): only explicit messages, the next
// leader's retries, or the deadline settle a resumed phase. Called
// from Start before the loop starts, so no lock.
func (r *Runtime) resumeMigration(rec migrate.Record, now time.Time) {
	m := &migration{
		phase:      rec.Phase,
		rec:        migrate.Record{Phase: rec.Phase, ID: rec.ID, From: rec.From, To: rec.To},
		proposer:   -1,
		start:      now,
		phaseStart: now,
		deadline:   now.Add(r.cfg.MigrateTimeout),
	}
	switch rec.Phase {
	case migrate.DualTag:
		if _, derr := placement.Decode(rec.Snapshot, r.cfg.placementOptions()); derr != nil {
			// The journaled warm snapshot no longer decodes (software
			// mismatch): roll back instead of resuming a window we could
			// never install through.
			r.cfg.logf("node %d: migration %d: journaled warm snapshot undecodable (%v); rolling back", r.cfg.ID, rec.ID, derr)
			aborted := m.rec
			aborted.Phase = migrate.Aborted
			if r.cfg.Journal != nil {
				if err := r.cfg.Journal.Append(journal.Record{Epoch: r.epoch, Round: r.round, Map: aborted.Encode()}); err != nil {
					r.cfg.logf("node %d: journal append: %v", r.cfg.ID, err)
				}
			}
			r.counters.MigrationsAborted++
			return
		}
		m.warm = append([]byte(nil), rec.Snapshot...)
		r.node.OpenDualTag(rec.To)
	case migrate.Committed:
		// The commit was decided but the new placement never reached the
		// journal: reopen a catch-up window and let the cluster's next
		// map (or the deadline) settle it.
		m.phase = migrate.DualTag
		r.node.OpenDualTag(rec.To)
	}
	r.mig = m
	r.recoveredMig = rec.Phase.String()
	r.cfg.logf("node %d: migration %d: resumed %s -> %s in phase %s from journal", r.cfg.ID, rec.ID, rec.From, rec.To, rec.Phase)
}
