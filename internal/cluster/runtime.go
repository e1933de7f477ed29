package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

// lineSize is k, the length of the delegate line: the k lowest members
// a node has heard within FailAfter. A node that has heard k members
// below its own id heartbeats only those k; every other node, the
// delegate included, heartbeats every member. See heartbeatTargets.
const lineSize = 3

// Runtime runs one node of the delegate protocol. Its protocol steps
// take the time as an argument and never read a clock; Start drives them
// from the wall clock on one goroutine (see run).
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
	// tr carries all runtime gossip through SendAsync: a broadcast is N
	// bounded enqueues, so one slow or dead peer can never stall the
	// rest of a round's fan-out.
	tr   Transport
	stop chan struct{}
	wg   sync.WaitGroup
	// calls carries work other goroutines hand to the loop (Migrate).
	calls chan func()

	// sendDrops counts messages the async fan-out path dropped
	// (per-peer queue full or transport closed). Atomic: drops are
	// noted on the send path, outside mu.
	sendDrops atomic.Uint64

	// installed is the node's installed map (the node's Installed),
	// republished whenever the protocol installs or produces a new map.
	// Request routing, the observer and the map accessors (MapState,
	// Snapshot, Placement) read it without touching mu, so the
	// protocol's lock never stalls them. journaled is the one the journal
	// last took; only the loop reads or writes it.
	installed atomic.Pointer[delegate.Installed]
	journaled *delegate.Installed

	// mu guards what changes per message: the node (its pending reports
	// and install counters), liveness, the counters, epoch, round and
	// delegate.
	mu     sync.Mutex
	node   *delegate.Node
	outbox []delegate.Message // staged under mu, sent outside it
	// peers is the sorted, deduplicated membership, fixed at Start; a
	// member's index in it is its liveness slot, and slots[k] is the slot
	// of cfg.Members[k]. lastSeen[slot] is when the member was last heard
	// from, in monotonic ns since clock0, or -1 if never; suspectUntil[slot]
	// is when the watchdog's suspicion of it lapses, on the same clock.
	// Messages from non-members have no slot and leave liveness untouched.
	peers        []delegate.NodeID
	slots        []int
	lastSeen     []int64
	suspectUntil []int64
	clock0       time.Time
	// epoch is the view epoch: bumped when this node takes over as
	// delegate, adopted from any higher epoch observed on the wire, and
	// stamped into every outbound message. Together with the round it
	// fences installs — see package delegate.
	epoch      uint64
	round      uint64
	roundStart time.Time
	// tuneAt is the cutoff of the round this node opened as delegate and
	// has not tuned yet, zero when no tune is pending. tick sets it half
	// a round after the round opened; a majority of reports pulls it in
	// (see tuneDueLocked); a newer round or epoch clears it.
	tuneAt time.Time
	// hbAt and roundAt are when the next heartbeat and the next round
	// tick are due. Only the loop reads or writes them (see fire), so
	// they need no lock.
	hbAt, roundAt time.Time
	recovered     *journal.Record // the record Start resumed from, if any
	lastMapTime   time.Time
	curDelegate   delegate.NodeID
	stopped       bool
	counters      Counters

	// hbLineOnly is whether the last heartbeat went only to the delegate
	// line. hbAllSince is when heartbeats last switched from the line
	// back to every member, zero if they never have since Start. Both
	// gate a takeover in tick: see takeoverHeldLocked.
	hbLineOnly bool
	hbAllSince time.Time

	// migrateTo is the strategy Migrate asked this delegate to move to,
	// taken by its next tune; "" when none is pending. See migrate.go.
	migrateTo string
}

// Start brings up a runtime on the given transport and begins
// heartbeating and round-driving immediately.
//
// With a configured Journal, Start recovers the journal's newest
// record and resumes from it: the persisted map replaces cfg.Snapshot
// as the bootstrap placement, and the node's install fence and the
// runtime's epoch and round resume at the persisted (epoch, round) —
// the restart rejoins where it crashed instead of replaying the seed
// placement. The newest record boots whatever its strategy: a migrated
// node serves the strategy its journal holds, inside the window if the
// map carries one, even though cfg.Strategy, which checks cfg.Snapshot
// only, names another. A journaled map that no longer decodes is an
// error, never a silent fallback: the journal's CRC framing already
// rejected disk damage, so an undecodable record means the operator
// pointed the node at the wrong file.
func Start(cfg Config, tr Transport) (*Runtime, error) {
	r, err := newRuntime(cfg, tr, time.Now())
	if err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// newRuntime is Start without the loop: it validates cfg and recovers
// the journal into a runtime whose clock starts at now, and starts no
// goroutine. Its first heartbeat is due at now and its first round one
// RoundInterval later. A caller that never runs the loop drives the
// runtime by calling handle and fire itself, with times of its choosing.
func newRuntime(cfg Config, tr Transport, now time.Time) (*Runtime, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	peers := slices.Compact(slices.Sorted(slices.Values(cfg.Members)))
	slots := make([]int, len(cfg.Members))
	for k, id := range cfg.Members {
		slots[k], _ = slices.BinarySearch(peers, id)
	}
	lastSeen := make([]int64, len(peers))
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	r := &Runtime{
		cfg:          cfg,
		tr:           tr,
		stop:         make(chan struct{}),
		calls:        make(chan func()),
		peers:        peers,
		slots:        slots,
		lastSeen:     lastSeen,
		suspectUntil: make([]int64, len(peers)),
		clock0:       now,
		curDelegate:  -1,
	}
	r.counters.InstallLatencyHist = latencyHistogram()
	r.counters.SampleLatencyHist = latencyHistogram()
	if tag, terr := placement.Tag(cfg.Snapshot); terr != nil {
		return nil, fmt.Errorf("cluster: node %d: bootstrap snapshot: %w", cfg.ID, terr)
	} else if tag != cfg.Strategy {
		return nil, fmt.Errorf("cluster: node %d: bootstrap snapshot carries strategy %q, configured %q", cfg.ID, tag, cfg.Strategy)
	}
	snapshot := cfg.Snapshot
	if cfg.Journal != nil {
		if rec, ok := cfg.Journal.LastPlacement(); ok {
			snapshot = rec.Map
			r.recovered = &rec
			r.epoch, r.round = rec.Epoch, rec.Round
		}
	}
	node, err := delegate.NewNode(cfg.ID, snapshot, cfg.placementOptions())
	if err != nil {
		if r.recovered != nil {
			return nil, fmt.Errorf("cluster: node %d: journaled placement unusable: %w", cfg.ID, err)
		}
		return nil, err
	}
	if r.recovered != nil {
		node.Resume(r.recovered.Epoch, r.recovered.Round)
		cfg.logf("node %d: resumed from journal at epoch %d round %d", cfg.ID, r.recovered.Epoch, r.recovered.Round)
		if node.Strategy() != cfg.Strategy {
			cfg.logf("node %d: journal serves strategy %q, configured %q: booting the journal's", cfg.ID, node.Strategy(), cfg.Strategy)
		}
	}
	r.node = node
	r.journaled = node.Installed()
	r.installed.Store(r.journaled)
	r.roundStart, r.lastMapTime = now, now
	r.hbAt, r.roundAt = now, now.Add(cfg.RoundInterval)
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

// run is the wall-clock loop, the runtime's one goroutine: it handles
// a message, a Migrate call or its one timer, armed at next(), one event
// at a time with the time it woke at. So every change to protocol state
// and every journal flush happens on it, in order; mu only lets the
// accessors read that state from other goroutines.
func (r *Runtime) run() {
	defer r.wg.Done()
	timer := time.NewTimer(time.Until(r.next()))
	defer timer.Stop()
	recv := r.tr.Recv()
	for {
		select {
		case <-r.stop:
			return
		case msg, ok := <-recv:
			if !ok {
				recv = nil // the transport closed; run on until Stop
				continue
			}
			r.handle(msg, time.Now())
		case <-timer.C:
			r.fire(time.Now())
		case call := <-r.calls:
			call()
		}
		timer.Reset(time.Until(r.next()))
	}
}

// next is the earliest time the runtime has work due without a message:
// its next heartbeat, its next round tick, or the pending tune's cutoff.
func (r *Runtime) next() time.Time {
	at := r.hbAt
	if r.roundAt.Before(at) {
		at = r.roundAt
	}
	if !r.tuneAt.IsZero() && r.tuneAt.Before(at) {
		at = r.tuneAt // written under mu, but only ever on the loop
	}
	return at
}

// fire runs every step due at now: the heartbeat, then the round tick,
// then the pending tune. A round this node opens is announced to every
// member, so it is this instant's heartbeat: the heartbeat due with it
// picks its targets, as every beat does, but is not sent. A deadline
// that passed moves to the first interval boundary after now, so a late
// wake-up runs each step once and skips the beats it missed, as
// time.Ticker drops ticks.
func (r *Runtime) fire(now time.Time) {
	beat := !now.Before(r.hbAt)
	var hb heartbeat
	if beat {
		r.hbAt = nextBoundary(r.hbAt, r.cfg.HeartbeatInterval, now)
		hb = r.heartbeatTargets(now)
	}
	if !now.Before(r.roundAt) {
		r.roundAt = nextBoundary(r.roundAt, r.cfg.RoundInterval, now)
		if r.tick(now) {
			beat = false
		}
	}
	if beat {
		r.sendHeartbeats(hb)
	}
	r.tuneIfDue(now)
}

// nextBoundary is the first time at + k·every, k ≥ 1, after now; at
// must not be after now.
func nextBoundary(at time.Time, every time.Duration, now time.Time) time.Time {
	return at.Add((now.Sub(at)/every + 1) * every)
}

// handle processes one inbound message: liveness bookkeeping, protocol
// routing, and epoch/round gossip.
func (r *Runtime) handle(msg delegate.Message, now time.Time) {
	r.mu.Lock()
	if i, ok := slices.BinarySearch(r.peers, msg.From); ok {
		r.lastSeen[i] = int64(now.Sub(r.clock0))
	}
	// Epoch gossip: the view epoch is a cluster-wide maximum carried on
	// every message, so a node that slept through a re-election learns
	// the new epoch from the first heartbeat it receives. A tune pending
	// in the old epoch is dropped.
	if msg.Epoch > r.epoch {
		r.epoch = msg.Epoch
		r.tuneAt = time.Time{}
	}
	tune := false
	switch msg.Kind {
	case MsgHeartbeat:
		r.counters.HeartbeatsReceived++
	case delegate.MsgReport:
		r.counters.ReportsReceived++
		r.receiveLocked(msg)
		tune = msg.Round == r.round
	case delegate.MsgMap:
		if r.receiveLocked(msg) {
			r.counters.MapsInstalled++
			r.lastMapTime = now
			// A map that is the first news of its round has no round start
			// to time it from: this node missed the round's announcement,
			// and roundStart still belongs to the round before.
			if msg.Round <= r.round {
				install := now.Sub(r.roundStart).Seconds()
				r.counters.InstallLatency.Add(install)
				r.counters.InstallLatencyHist.Add(install)
			}
			r.installed.Store(r.node.Installed())
		}
	default:
		// Unknown kinds are dropped at the runtime boundary; the
		// protocol node only ever sees MsgReport and MsgMap.
	}
	// Round gossip: adopt a newer round and report into it at once —
	// followers are paced by the delegate's announcements, not their
	// own timers. A tune pending in the old round is dropped. The report
	// itself is sent by observeAndReport after the lock is released,
	// because sampling calls the user's observer.
	reportTo := delegate.NodeID(-1)
	if msg.Round > r.round {
		r.round = msg.Round
		r.roundStart = now
		r.tuneAt = time.Time{}
		if del := r.lowestLiveLocked(now); del != r.cfg.ID {
			reportTo = del
		}
	}
	r.unlockAndFlush()
	if tune {
		r.tuneIfDue(now)
	}
	if reportTo >= 0 {
		r.observeAndReport(reportTo)
	}
}

// receiveLocked hands one protocol message to the node at the current
// round and reports whether a map installed. A rejected message is
// logged and affects nothing else.
func (r *Runtime) receiveLocked(msg delegate.Message) bool {
	installed, err := r.node.Receive(msg, r.round)
	if err != nil {
		r.cfg.logf("node %d: %v", r.cfg.ID, err)
	}
	return installed
}

// observeAndReport samples local performance and sends the report for
// the current round. The observer runs without the runtime lock — it
// may call back into Stats or the lookup path — and on the loop, so the
// round cannot move while it runs.
func (r *Runtime) observeAndReport(to delegate.NodeID) {
	requests, latency := r.sample()
	r.mu.Lock()
	r.node.Observe(requests, latency)
	r.counters.SampleLatencyHist.Add(latency)
	msg := r.node.Report(to, r.epoch, r.round)
	r.counters.ReportsSent++
	r.mu.Unlock()
	r.sendOne(msg)
}

// sample invokes the configured observer against the published
// placement, outside the runtime lock.
func (r *Runtime) sample() (requests uint64, meanLatencySeconds float64) {
	if r.cfg.Observe == nil {
		return 0, 0
	}
	return r.cfg.Observe(r.installed.Load().Strategy, r.cfg.ID)
}

// heartbeat is one beat's targets: the liveness slots of the delegate
// line when lineOnly, else every other member.
type heartbeat struct {
	lineOnly bool
	line     [lineSize]int
}

// heartbeatTargets aims the heartbeat due at now toward the delegate
// line. Only the delegate consumes follower liveness (it fails silent
// members at tune), and a follower only needs the liveness of the ids
// elected before it. So a node that has heard lineSize members below
// its own id heartbeats just those, and every other node heartbeats
// everyone. The lowest live id has nobody live below it, so it always
// heartbeats everyone and every node sees it; it sits in every node's
// line, so it hears every follower. Traffic per interval falls from
// n(n-1) to about 2·lineSize·n. The choice gates a takeover, so it is
// recorded whether or not the beat is sent (see takeoverHeldLocked).
func (r *Runtime) heartbeatTargets(now time.Time) (hb heartbeat) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hb.lineOnly = r.heartbeatLineLocked(now, &hb.line)
	if r.hbLineOnly && !hb.lineOnly {
		r.hbAllSince = now
	}
	r.hbLineOnly = hb.lineOnly
	return hb
}

// sendHeartbeats sends one heartbeat, carrying the node's epoch and
// round, to hb's targets.
func (r *Runtime) sendHeartbeats(hb heartbeat) {
	r.mu.Lock()
	msg := delegate.Message{Kind: MsgHeartbeat, From: r.cfg.ID, Epoch: r.epoch, Round: r.round}
	if hb.lineOnly {
		r.counters.HeartbeatsSent += lineSize
	} else {
		r.counters.HeartbeatsSent += uint64(len(r.cfg.Members) - 1)
	}
	r.mu.Unlock()
	if !hb.lineOnly {
		r.broadcast(msg)
		return
	}
	for _, i := range hb.line {
		msg.To = r.peers[i]
		r.sendOne(msg)
	}
}

// heartbeatLineLocked fills line with the liveness slots of the
// lineSize lowest members heard within FailAfter and reports whether
// all of them sit below this node. Watchdog suspicion is ignored, so a
// follower keeps beaconing a delegate it suspects. It walks the sorted
// slots and stops at the lineSize-th heard member or at its own slot.
func (r *Runtime) heartbeatLineLocked(now time.Time, line *[lineSize]int) bool {
	n := 0
	for i, id := range r.peers {
		if id >= r.cfg.ID {
			return false
		}
		if r.heardLocked(i, now) {
			line[n] = i
			if n++; n == lineSize {
				return true
			}
		}
	}
	return false
}

// takeoverHeldLocked reports whether this node must not take over as
// delegate yet. A node that heartbeats only the line is heard by the
// line alone, so when the whole line dies together every other node
// sees itself as the lowest live id for a moment. A node may take over
// only once it has heartbeated everyone for FailAfter, by which time
// every live node hears it. A node that has heartbeated everyone since
// Start is never held, so start-up and rejoin are as fast as ever.
func (r *Runtime) takeoverHeldLocked(now time.Time) bool {
	return r.hbLineOnly || now.Sub(r.hbAllSince) < r.cfg.FailAfter // Sub saturates: a zero hbAllSince never holds
}

// tick runs one timer beat: election over the observed view, the
// round watchdog, and — when this node is the delegate — starting a
// new round. It reports whether it opened a round, whose announcement
// went to every other member.
func (r *Runtime) tick(now time.Time) bool {
	r.mu.Lock()
	del := r.lowestLiveLocked(now)
	// Watchdog: heartbeats without placement maps are not progress.
	// If the delegate has produced nothing for WatchdogRounds
	// intervals, suspect it so election moves to the next id.
	watchdog := time.Duration(r.cfg.WatchdogRounds) * r.cfg.RoundInterval
	if del != r.cfg.ID && now.Sub(r.lastMapTime) > watchdog {
		i, _ := slices.BinarySearch(r.peers, del)
		r.suspectUntil[i] = int64(now.Sub(r.clock0) + r.cfg.FailAfter)
		r.counters.WatchdogTrips++
		r.lastMapTime = now // restart the clock; suspect one rank at a time
		r.cfg.logf("node %d: watchdog: no map for %v, suspecting delegate %d", r.cfg.ID, watchdog, del)
		del = r.lowestLiveLocked(now)
	}
	if del == r.cfg.ID && r.curDelegate != r.cfg.ID && r.takeoverHeldLocked(now) {
		del = r.curDelegate // not yet heard by everyone: keep the old view
	}
	if del != r.curDelegate {
		if r.curDelegate >= 0 {
			r.counters.Reelections++
			r.cfg.logf("node %d: delegate %d -> %d", r.cfg.ID, r.curDelegate, del)
		}
		// The watchdog times each delegate from its election: a successor
		// held back by takeoverHeldLocked gets a full window to produce.
		r.lastMapTime = now
		if del == r.cfg.ID {
			// This node is taking over as delegate: open a new view
			// epoch so every map the previous delegate may still have
			// in flight is fenced out by (epoch, round) ordering.
			r.epoch++
		}
		r.curDelegate = del
	}
	isDelegate := del == r.cfg.ID
	r.tuneAt = time.Time{} // a round not tuned by the next tick is dropped
	if !isDelegate && r.migrateTo != "" {
		r.cfg.logf("node %d: no longer the delegate; dropping the migration to %q", r.cfg.ID, r.migrateTo)
		r.migrateTo = ""
	}
	if isDelegate {
		// This node paces the cluster: open the round, announce it to
		// peers, and tune after the grace window. The self-sample runs
		// after the lock is released (the observer may call back in).
		r.round++
		r.roundStart = now
		r.stageToPeersLocked(delegate.Message{Kind: MsgHeartbeat, From: r.cfg.ID, Epoch: r.epoch, Round: r.round}, nil)
		r.counters.HeartbeatsSent += uint64(len(r.cfg.Members) - 1)
	}
	r.unlockAndFlush()
	if !isDelegate {
		return false
	}
	requests, latency := r.sample()
	r.mu.Lock()
	r.node.Observe(requests, latency)
	r.counters.SampleLatencyHist.Add(latency)
	r.tuneAt = now.Add(r.cfg.RoundInterval / 2)
	r.mu.Unlock()
	r.tuneIfDue(now)
	return true
}

// tuneIfDue tunes the round this node opened as delegate once the wait
// for its reports is over (see tuneDueLocked), and sends the new map to
// every other member: a live peer whose report missed the window was
// tuned as idle, and it must still install the round it is serving
// under. A pending migration target is taken here, so its map is this
// round's one map.
func (r *Runtime) tuneIfDue(now time.Time) {
	r.mu.Lock()
	if !r.tuneDueLocked(now) {
		r.mu.Unlock()
		return
	}
	r.tuneAt = time.Time{}
	r.counters.ReportsPerTune.Add(float64(r.node.PendingReports() + 1))
	snapshot, err := r.node.Rescale(r.epoch, r.round, r.tuneMembersLocked(now), r.migrateTo, r.windowRounds())
	r.migrateTo = ""
	if err != nil {
		r.cfg.logf("node %d: tune round %d: %v", r.cfg.ID, r.round, err)
	} else {
		r.counters.Tunes++
		r.lastMapTime = now
		r.installed.Store(r.node.Installed())
		r.stageToPeersLocked(delegate.Message{Kind: delegate.MsgMap, From: r.cfg.ID, Epoch: r.epoch, Round: r.round, Payload: snapshot}, nil)
	}
	r.unlockAndFlush()
}

// tuneDueLocked reports whether a tune is pending and its wait is over.
// The wait ends at the first of:
//   - every peer in the live view has reported;
//   - the straggler cutoff: once a majority of the configured members'
//     reports (the delegate's own sample included) are in at elapsed
//     time t_q after the round opened, the rest get as long again, 2·t_q;
//   - half a RoundInterval after the round opened.
//
// The straggler cutoff is folded into tuneAt, which only moves earlier.
func (r *Runtime) tuneDueLocked(now time.Time) bool {
	if r.tuneAt.IsZero() {
		return false
	}
	got := r.node.PendingReports() + 1 // + the delegate's own sample
	if at := now.Add(now.Sub(r.roundStart)); got >= len(r.cfg.Members)/2+1 && at.Before(r.tuneAt) {
		r.tuneAt = at
	}
	return !now.Before(r.tuneAt) || got >= r.viewSizeLocked(now)
}

// tuneMembersLocked is the membership view the delegate tunes over:
// every configured member, up if it is this node or was heard within
// FailAfter. A report refreshes lastSeen, so a peer that reported is
// up. A live peer that missed this report window is tuned as idle
// instead of evicted on one lost packet; a silent one is failed,
// releasing its region to the survivors; a restarted one is
// re-admitted.
func (r *Runtime) tuneMembersLocked(now time.Time) []placement.Member {
	members := make([]placement.Member, len(r.cfg.Members))
	for k, id := range r.cfg.Members {
		members[k] = placement.Member{ID: id, Up: id == r.cfg.ID || r.heardLocked(r.slots[k], now)}
	}
	return members
}

// viewLocked is the observed membership: self plus every peer heard
// from within FailAfter and not currently suspected by the watchdog.
// The delegate and the rest of the line hear every member; a follower
// outside the line hears only the nodes that heartbeat everyone.
func (r *Runtime) viewLocked(now time.Time) []delegate.NodeID {
	view := make([]delegate.NodeID, 0, len(r.cfg.Members))
	for k, id := range r.cfg.Members {
		if r.liveLocked(r.slots[k], now) {
			view = append(view, id)
		}
	}
	return view
}

// viewSizeLocked is len(viewLocked(now)) without building the view.
func (r *Runtime) viewSizeLocked(now time.Time) int {
	n := 0
	for _, i := range r.slots {
		if r.liveLocked(i, now) {
			n++
		}
	}
	return n
}

// lowestLiveLocked is the paper's election rule over the observed view:
// the lowest live id, which is self when no member below it is live. It
// walks the sorted slots and builds no view.
func (r *Runtime) lowestLiveLocked(now time.Time) delegate.NodeID {
	for i, id := range r.peers {
		if r.liveLocked(i, now) {
			return id
		}
	}
	return r.cfg.ID // unreachable: self is a member and always live
}

// liveLocked reports whether the member in liveness slot i is in the
// observed view at now: self, or heard within FailAfter and not
// suspected by the watchdog.
func (r *Runtime) liveLocked(i int, now time.Time) bool {
	return r.peers[i] == r.cfg.ID || int64(now.Sub(r.clock0)) >= r.suspectUntil[i] && r.heardLocked(i, now)
}

// heardLocked reports whether the member in liveness slot i was heard
// from within FailAfter of now.
func (r *Runtime) heardLocked(i int, now time.Time) bool {
	seen := r.lastSeen[i]
	return seen >= 0 && int64(now.Sub(r.clock0))-seen <= int64(r.cfg.FailAfter)
}

// broadcast fans one message template out to every other member,
// stamping To per peer: N bounded enqueues, so the whole fan-out
// completes without blocking on any peer's socket.
func (r *Runtime) broadcast(msg delegate.Message) {
	for _, id := range r.cfg.Members {
		if id == r.cfg.ID {
			continue
		}
		msg.To = id
		r.sendOne(msg)
	}
}

// stageToPeersLocked stages msg for every other member, stamping To per
// peer, except those skip (when non-nil) excludes.
func (r *Runtime) stageToPeersLocked(msg delegate.Message, skip func(delegate.NodeID) bool) {
	for _, id := range r.cfg.Members {
		if id != r.cfg.ID && (skip == nil || !skip(id)) {
			msg.To = id
			r.outbox = append(r.outbox, msg)
		}
	}
}

// sendOne enqueues one message on the transport. A drop is counted,
// never fatal: a queue-full drop is healed by the protocol's own
// cadence (re-announced rounds, re-broadcast maps) exactly like wire
// loss.
func (r *Runtime) sendOne(msg delegate.Message) {
	if !r.tr.SendAsync(msg) {
		r.sendDrops.Add(1)
	}
}

// ID returns the node's identity.
func (r *Runtime) ID() delegate.NodeID { return r.cfg.ID }

// Epoch returns the node's current view epoch.
func (r *Runtime) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Delegate returns the node's current view of the delegate (-1 before
// the first election).
func (r *Runtime) Delegate() delegate.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.curDelegate
}

// MapState returns the installed map's identity — view epoch, round,
// and fingerprint — as one observation: all three come from one
// immutable installed map, so they can never pair one map's round with
// its successor's fingerprint. It takes no lock, neither encodes nor
// allocates, and is cheap enough to poll on every node.
func (r *Runtime) MapState() (epoch, round, fingerprint uint64) {
	m := r.installed.Load()
	return m.Epoch, m.Round, m.Fingerprint
}

// unlockAndFlush ends a protocol step: it takes the staged messages,
// releases mu, then sends them and journals the step's install, so
// socket and disk latency never stall the accessors.
func (r *Runtime) unlockAndFlush() {
	out := r.outbox
	r.outbox = nil
	r.mu.Unlock()
	for _, msg := range out {
		r.sendOne(msg)
	}
	r.flushJournal()
}

// flushJournal appends the installed map, fsyncing, when it is not the
// one the journal last took. A step installs at most one map and every
// step flushes on the loop, so every install reaches the journal, in
// install order. A failure is counted and logged — the in-memory
// placement is already live, so the node keeps serving and retries
// durability on the next install.
func (r *Runtime) flushJournal() {
	m := r.installed.Load()
	if r.cfg.Journal == nil || m == r.journaled {
		return
	}
	r.journaled = m
	// Append copies the map; the record only reads it.
	if err := r.cfg.Journal.Append(journal.Record{Epoch: m.Epoch, Round: m.Round, Map: m.Encoded}); err != nil {
		r.cfg.logf("node %d: journal append (epoch %d round %d): %v", r.cfg.ID, m.Epoch, m.Round, err)
		r.mu.Lock()
		r.counters.JournalAppendErrors++
		r.mu.Unlock()
	}
}

// Lookup routes a key on the node's current placement snapshot. It is
// the data-plane entry point: lock-free, it never contends with
// heartbeats, report collection, or tuning. The boolean is false only
// when every server in the placement has failed.
func (r *Runtime) Lookup(key string) (anu.ServerID, bool) {
	return placement.Lookup(r.installed.Load().Strategy, key)
}

// LookupDigest is Lookup for a key pre-hashed with hashx.Prehash, on
// any strategy. The boolean is false only when every server in the
// placement has failed.
func (r *Runtime) LookupDigest(d hashx.Digest) (anu.ServerID, bool) {
	id, _ := r.installed.Load().Strategy.LookupDigest(d)
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
	return r.installed.Load().Strategy.LookupBatch(keys, owners)
}

// Placement returns a copy of the node's placement strategy. It takes
// no lock.
func (r *Runtime) Placement() placement.Strategy {
	return r.installed.Load().Strategy.Clone()
}

// Snapshot returns a fresh copy of the encoded placement — what a
// restarting peer bootstraps from. The bytes carry the strategy tag; the
// caller owns them. It takes no lock.
func (r *Runtime) Snapshot() []byte {
	return bytes.Clone(r.installed.Load().Encoded)
}

// String identifies the runtime in logs.
func (r *Runtime) String() string {
	return fmt.Sprintf("cluster.Runtime(node %d)", r.cfg.ID)
}
