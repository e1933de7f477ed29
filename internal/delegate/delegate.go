// Package delegate implements the cluster-management protocol around
// ANU randomization described in Section 4 of the paper: at the end of
// each tuning interval every server reports its latency to an elected
// delegate; the delegate computes the new load configuration from the
// reported latencies alone and distributes the new mapping of servers
// to the unit interval — the system's only replicated state — to all
// servers.
//
// The delegate is deliberately stateless: if it fails, the next elected
// delegate runs the same protocol with the same information. This
// package makes that property concrete and testable: nodes exchange
// typed, byte-encoded messages, and whichever node acts as delegate
// tunes from the reports it received alone.
//
// A Node is a state machine that never sends or queues: Receive takes
// one inbound message, Report builds the outbound report, and Rescale
// returns the new map's bytes. Its caller owns delivery, liveness and
// election: package cluster's Runtime is the one runner, driven by the
// wall clock over real networks or, in its tests, by a replayable
// virtual clock. A restart builds a fresh Node from the journaled
// snapshot and re-arms its fence with Resume. The wire encodings are
// real, so the shared-state accounting matches what a networked
// deployment would replicate.
//
// The protocol is placement-policy-agnostic: a node replicates an
// opaque, strategy-tagged snapshot (package placement) rather than an
// ANU map specifically. ANU remains the default and its wire bytes are
// unchanged; a node refuses to install a snapshot whose strategy tag
// differs from its own, so mixed-strategy broadcasts can never corrupt
// a cluster. The one sanctioned exception is a live migration's
// dual-tag window (OpenDualTag): while it is open the node will also
// accept a superseding snapshot carrying exactly the named target
// strategy — that install IS the cutover, and it closes the window.
package delegate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"anurand/internal/anu"
	"anurand/internal/placement"
)

// NodeID identifies a management agent (one per file server). It is the
// same identifier space as the placement map's ServerID.
type NodeID = anu.ServerID

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Protocol message kinds.
const (
	// MsgReport carries one server's interval latency report to the
	// delegate.
	MsgReport MsgKind = iota + 1
	// MsgMap carries the delegate's new placement map to a server.
	MsgMap
)

// Message is one protocol datagram. Payload is the wire encoding of a
// Report (MsgReport) or a placement map (MsgMap).
//
// Epoch is the view epoch of the sender: it increments each time a new
// delegate takes over, so a map broadcast is ordered by the (Epoch,
// Round) pair rather than the round alone. Round numbers keep rising
// within an epoch; a re-election starts a higher epoch and thereby
// fences out everything the previous delegate may still have in flight.
type Message struct {
	Kind MsgKind
	From NodeID
	To   NodeID
	// Flags carries out-of-band sender state (v3 wire frames). The
	// delegate protocol itself ignores it; the cluster runtime uses it
	// to gossip "a migration is in flight" on ordinary traffic.
	Flags   uint8
	Epoch   uint64
	Round   uint64
	Payload []byte
}

// Report is the per-interval performance sample of one server.
type Report struct {
	Requests uint64
	// LatencyMicros is the mean response time in microseconds. Fixed
	// point keeps the wire format integer-only and platform-stable.
	LatencyMicros uint64
}

// MaxLatencyMicros is the largest latency a report can carry: 1e18
// microseconds (~31,700 years). Observe clamps to it so the
// float64→uint64 conversion is always in range; values beyond it carry
// no more information than "unusably slow".
const MaxLatencyMicros uint64 = 1e18

// encodeReport serializes a report payload.
func encodeReport(r Report) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], r.Requests)
	binary.LittleEndian.PutUint64(buf[8:16], r.LatencyMicros)
	return buf
}

// decodeReport parses a report payload.
func decodeReport(b []byte) (Report, error) {
	if len(b) != 16 {
		return Report{}, fmt.Errorf("report payload is %d bytes, want 16", len(b))
	}
	return Report{
		Requests:      binary.LittleEndian.Uint64(b[0:8]),
		LatencyMicros: binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// Node is one server's management agent. It holds the node's copy of
// the placement strategy and, when elected, the delegate logic.
type Node struct {
	id NodeID
	// s is the node's placement strategy — the replicated state plus the
	// tuning rule that rescales it. opts reproduces the construction
	// configuration when installs decode fresh snapshots.
	s    placement.Strategy
	opts placement.Options
	// enc is s's canonical encoding and fp its SnapshotFingerprint. Both
	// are set wherever s changes (construction, install, rescale), so
	// reading the installed map's bytes or fingerprint never re-encodes.
	// enc is shared read-only: it may also be a delivered payload, a
	// broadcast's payload, or a journal record's source.
	enc  []byte
	fp   uint64
	last Report // most recent local measurement
	// pending holds the latest report of each member of s, for the
	// delegate's next Rescale. Reports from non-members are dropped, so
	// its size is bounded by the membership. tuned is the round of the
	// last successful Rescale: a report for it arrives after its tune,
	// and is dropped rather than counted toward the next round.
	pending map[NodeID]Report
	tuned   uint64
	// (mapEpoch, mapRound) is the fence of the last installed map: a
	// MsgMap with a lexicographically lower pair is stale and must never
	// overwrite a newer placement — not even one with a higher round, if
	// it comes from a superseded epoch. This is what stops a formerly
	// partitioned delegate, whose round counter may have raced ahead,
	// from rolling the cluster back when it reconnects.
	mapEpoch uint64
	mapRound uint64
	// installs counts the outcomes of map messages: rejections by
	// cause, and cutovers through a dual-tag window.
	installs InstallStats
	// dualTagTarget, when non-empty, names the one foreign strategy tag
	// the node will accept an install of — the live-migration window.
	dualTagTarget string
}

// supersedes reports whether fence (e, r) is at least fence (oe, or):
// epochs order first, rounds break ties. Equal pairs supersede, so a
// duplicated broadcast of the current map reinstalls harmlessly.
func supersedes(e, r, oe, or uint64) bool {
	if e != oe {
		return e > oe
	}
	return r >= or
}

// InstallStats counts what a node did with the map messages it
// received. Each rejection counter is one reason an install was
// refused; the placement was left untouched every time.
type InstallStats struct {
	// StaleMapsRejected counts old-round maps refused by the fence —
	// each one is a reordering the protocol survived.
	StaleMapsRejected uint64
	// StaleEpochsRejected counts maps from superseded view epochs
	// refused by the fence — each one is a partitioned or deposed
	// delegate that failed to roll the placement back.
	StaleEpochsRejected uint64
	// TagMismatchesRejected counts placements refused because their
	// strategy tag differed from the node's, outside any dual-tag
	// window — a misconfigured peer, not a protocol race.
	TagMismatchesRejected uint64
	// CrossTagInstallsRejected counts placements refused during a
	// dual-tag window because they carried neither the node's current
	// strategy nor the migration target.
	CrossTagInstallsRejected uint64
	// UndecodableMapsRejected counts payloads that failed to decode at
	// all (truncated or corrupt snapshots).
	UndecodableMapsRejected uint64
	// DualTagInstalls counts cutovers: installs that switched the node's
	// strategy through an open dual-tag window.
	DualTagInstalls uint64
}

// NewNode creates an agent with its own copy of the initial placement,
// decoded from its tagged snapshot (a raw ANU map or a tagged container
// — see package placement) with opts, which also decode every later
// install. All nodes must be constructed from byte-identical snapshots;
// a restarting node is constructed from its journaled snapshot and then
// Resumed. NewNode copies the snapshot, so the caller may reuse it.
func NewNode(id NodeID, snapshot []byte, opts placement.Options) (*Node, error) {
	s, err := placement.Decode(snapshot, opts)
	if err != nil {
		return nil, fmt.Errorf("delegate: node %d: %w", id, err)
	}
	if !s.Has(id) {
		return nil, fmt.Errorf("delegate: node %d not a member of the placement", id)
	}
	n := &Node{
		id:      id,
		opts:    opts,
		pending: make(map[NodeID]Report),
	}
	n.setPlacement(s, bytes.Clone(snapshot))
	return n, nil
}

// setPlacement installs s with enc as its canonical encoding. Accepted
// snapshots re-encode byte-identically (the placement conformance suite
// and the decoder fuzzers assert it), so a decoded snapshot is its own
// encoding.
func (n *Node) setPlacement(s placement.Strategy, enc []byte) {
	n.s = s
	n.enc = enc
	n.fp = SnapshotFingerprint(enc)
}

// SnapshotFingerprint is the 64-bit FNV-1a-style digest (FNV prime,
// this package's fixed offset) of an encoded placement: what
// Node.Fingerprint returns for a node holding it.
func SnapshotFingerprint(enc []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Placement returns the node's current placement strategy (read-only
// use). The node never mutates a placement's state once set (soft
// state such as ANU's controller aside): Rescale tunes a clone, and
// installs replace it, so the value stays valid for concurrent readers
// after the node moves on.
func (n *Node) Placement() placement.Strategy { return n.s }

// Strategy returns the registered tag of the node's placement strategy.
func (n *Node) Strategy() string { return n.s.Name() }

// Map returns the node's current ANU placement map (read-only use), or
// nil when the node runs a non-ANU strategy.
func (n *Node) Map() *anu.Map {
	if a, ok := n.s.(*placement.ANU); ok {
		return a.Map()
	}
	return nil
}

// Fingerprint returns the SnapshotFingerprint of the node's encoded
// placement, used to assert cluster-wide convergence. It is computed once per
// placement change, so reading it costs nothing.
func (n *Node) Fingerprint() uint64 { return n.fp }

// Encoded returns the canonical encoding of the node's placement, equal
// to Placement().Encode() but without re-encoding. The slice is shared:
// callers must not modify it, and copy it if they hand it out.
func (n *Node) Encoded() []byte { return n.enc }

// Resume restores the node's install fence after a durable restart: the
// caller recovered (epoch, round) — and the matching map snapshot the
// node was constructed from — from a journal, so the node must reject
// any install older than what it already persisted.
func (n *Node) Resume(epoch, round uint64) {
	n.mapEpoch = epoch
	n.mapRound = round
}

// Observe records the node's local measurement for the elapsed interval.
// Latencies are clamped to [0, MaxLatencyMicros/1e6] seconds: negative
// and NaN inputs become 0, while +Inf and absurdly large values saturate
// instead of hitting the platform-dependent behaviour of an
// out-of-range float64→uint64 conversion.
func (n *Node) Observe(requests uint64, meanLatencySeconds float64) {
	if meanLatencySeconds < 0 || math.IsNaN(meanLatencySeconds) {
		meanLatencySeconds = 0
	}
	micros := meanLatencySeconds * 1e6
	var latency uint64
	if micros >= float64(MaxLatencyMicros) { // catches +Inf too
		latency = MaxLatencyMicros
	} else {
		latency = uint64(micros)
	}
	n.last = Report{
		Requests:      requests,
		LatencyMicros: latency,
	}
}

// Report builds the message carrying the node's latest measurement to
// the given delegate, for the caller to send.
func (n *Node) Report(to NodeID, epoch, round uint64) Message {
	return Message{
		Kind:    MsgReport,
		From:    n.id,
		To:      to,
		Epoch:   epoch,
		Round:   round,
		Payload: encodeReport(n.last),
	}
}

// Receive handles one inbound message; round is the caller's current
// round. A report is kept for the next Rescale if it is for round, round
// is not one the node already rescaled, and its sender is a member of
// the node's placement; otherwise it is dropped. A map installs if its
// (epoch, round) fence supersedes the installed one, it decodes, and it
// carries the node's strategy tag (or, through an open dual-tag window,
// the target tag); otherwise it is counted in InstallStats and dropped.
// Receive reports whether a map installed. An error rejects a malformed message (a report payload of
// the wrong size, or an unknown kind) and nothing else.
//
// An installed Payload becomes the node's Encoded() bytes, so the
// caller must not modify it afterwards. Copies of one broadcast may
// share a payload: every holder treats it as read-only.
func (n *Node) Receive(msg Message, round uint64) (installed bool, err error) {
	switch msg.Kind {
	case MsgReport:
		if msg.Round != round || round == n.tuned || !n.s.Has(msg.From) {
			return false, nil // a stale or already-tuned round, or a non-member
		}
		rep, derr := decodeReport(msg.Payload)
		if derr != nil {
			return false, fmt.Errorf("delegate: node %d: report from %d: %w", n.id, msg.From, derr)
		}
		n.pending[msg.From] = rep
		return false, nil
	case MsgMap:
		return n.install(msg), nil
	default:
		return false, fmt.Errorf("delegate: node %d: unknown message kind %d from %d", n.id, msg.Kind, msg.From)
	}
}

// install applies one map message under the fence and tag rules of
// Receive, reporting whether it installed.
func (n *Node) install(msg Message) bool {
	if !supersedes(msg.Epoch, msg.Round, n.mapEpoch, n.mapRound) {
		// A reordered, duplicated or partition-replayed map carrying an
		// older (epoch, round) must never overwrite a newer placement:
		// installed fences are monotonic.
		if msg.Epoch < n.mapEpoch {
			n.installs.StaleEpochsRejected++
		} else {
			n.installs.StaleMapsRejected++
		}
		return false
	}
	// Decoding after the installed placement lets a strategy reuse what
	// the map leaves unchanged (chord's ring, while the members stay).
	s, err := placement.DecodeAfter(msg.Payload, n.opts, n.s)
	if err != nil {
		// A corrupt map must never be installed.
		n.installs.UndecodableMapsRejected++
		return false
	}
	if s.Name() != n.s.Name() {
		if n.dualTagTarget == "" {
			// A placement from a different strategy must never be
			// installed, whatever its fence says.
			n.installs.TagMismatchesRejected++
			return false
		}
		if s.Name() != n.dualTagTarget {
			// Even mid-migration only the one named target tag is
			// admissible; anything else is still poison.
			n.installs.CrossTagInstallsRejected++
			return false
		}
		// The cutover: a superseding map carrying the migration target
		// installs, switches the node's strategy, and closes the window.
		n.installs.DualTagInstalls++
		n.dualTagTarget = ""
	}
	if ad, ok := s.(placement.StateAdopter); ok {
		// Keep soft state (latency smoothing) warm across installs, as
		// the pre-placement node did by holding one controller for the
		// life of the process.
		ad.AdoptState(n.s)
	}
	for id := range n.pending {
		if !s.Has(id) {
			delete(n.pending, id) // keep pending within the membership
		}
	}
	n.setPlacement(s, msg.Payload)
	n.mapEpoch = msg.Epoch
	n.mapRound = msg.Round
	return true
}

// PendingReports returns how many distinct members' reports the node
// currently holds for its next Rescale — the delegate's quorum probe.
// It never exceeds the placement's member count.
func (n *Node) PendingReports() int { return len(n.pending) }

// MapRound returns the round of the node's installed map: 0 until the
// first install or Resume, then monotonically non-decreasing within an
// epoch for the life of the process.
func (n *Node) MapRound() uint64 { return n.mapRound }

// MapEpoch returns the view epoch of the node's installed map: 0 until
// the first install or Resume, then monotonically non-decreasing for
// the life of the process.
func (n *Node) MapEpoch() uint64 { return n.mapEpoch }

// InstallStats returns the node's map-message counters.
func (n *Node) InstallStats() InstallStats { return n.installs }

// OpenDualTag opens the live-migration window: until the window closes
// the node will additionally accept a superseding map install carrying
// exactly the target strategy tag, and that install switches the
// node's strategy. Opening a window with a different target replaces
// the previous one (a new migration supersedes an abandoned one).
// Opening with the node's own strategy is a no-op close: there is
// nothing to migrate to.
func (n *Node) OpenDualTag(target string) {
	if target == n.s.Name() {
		target = ""
	}
	n.dualTagTarget = target
}

// CloseDualTag closes the window without installing anything — the
// rollback path. The node's serving placement was never touched.
func (n *Node) CloseDualTag() { n.dualTagTarget = "" }

// DualTagTarget returns the open window's target strategy tag, or ""
// when no window is open.
func (n *Node) DualTagTarget() string { return n.dualTagTarget }

// Rescale executes the delegate role for one round: placement.TuneRound
// over members, with the pending reports of up members and the node's
// own latest measurement as the reports. An up member that did not
// report is tuned as idle; a down member is failed, so its region goes
// to the survivors (the paper's failure handling); an up member the
// placement holds at zero share is re-admitted with an equal share.
// The round tunes a clone of the placement and installs it only on
// success: a failed round returns the error and leaves Placement(),
// Encoded() and Fingerprint() as they were. A node thus never mutates a
// placement it has set, so a caller may publish Placement() to readers
// without copying it. On success the fence is stamped and the pending
// reports are cleared; a report for round that arrives afterwards is
// dropped as late. It returns the encoded map for the caller to
// distribute to every member. The returned bytes are the node's own
// Encoded() slice: send them, never modify them.
func (n *Node) Rescale(epoch, round uint64, members []placement.Member) ([]byte, error) {
	reports := make([]placement.Report, 0, len(members))
	for _, m := range members {
		rep, ok := n.pending[m.ID]
		if m.ID == n.id {
			rep, ok = n.last, true // the delegate reports to itself directly
		}
		if m.Up && ok {
			reports = append(reports, placement.Report{
				Server:   m.ID,
				Requests: rep.Requests,
				Latency:  float64(rep.LatencyMicros) / 1e6,
			})
		}
	}
	s := n.s.Clone()
	if err := placement.TuneRound(s, members, reports); err != nil {
		return nil, err
	}
	n.pending = make(map[NodeID]Report)
	n.tuned = round
	// The delegate's own map is now the round's authoritative placement;
	// stamping the fence keeps the guard effective if this node later
	// receives a late broadcast from a previous delegate.
	if supersedes(epoch, round, n.mapEpoch, n.mapRound) {
		n.mapEpoch = epoch
		n.mapRound = round
	}
	n.setPlacement(s, s.Encode())
	return n.enc, nil
}
