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
// typed, byte-encoded messages over a Transport, elect the
// lowest-numbered live node, and converge to byte-identical placement
// maps even across delegate crashes, message loss and re-elections.
//
// The runtime is round-synchronous and deterministic — a faithful model
// of the two-minute tuning cadence that avoids wall-clock flakiness in
// tests. The wire encodings are real, so the shared-state accounting
// matches what a networked deployment would replicate.
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
		return Report{}, fmt.Errorf("delegate: report payload is %d bytes, want 16", len(b))
	}
	return Report{
		Requests:      binary.LittleEndian.Uint64(b[0:8]),
		LatencyMicros: binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// Transport delivers messages between nodes. Implementations may delay,
// reorder or drop; the protocol only assumes that a delivered payload is
// intact (corrupt maps are rejected by decode-time validation).
type Transport interface {
	// Send queues a message for delivery. It never blocks.
	Send(msg Message)
	// Deliver drains the messages currently deliverable to the given
	// node.
	Deliver(to NodeID) []Message
}

// Node is one server's management agent. It holds the node's copy of
// the placement strategy and, when elected, the delegate logic.
type Node struct {
	id NodeID
	up bool
	// s is the node's placement strategy — the replicated state plus the
	// tuning rule that rescales it. opts reproduces the construction
	// configuration when installs and restarts decode fresh snapshots.
	s    placement.Strategy
	opts placement.Options
	tr   Transport
	last Report // most recent local measurement
	// pending accumulates reports received while acting as delegate.
	pending map[NodeID]Report
	// (mapEpoch, mapRound) is the fence of the last installed map: a
	// MsgMap with a lexicographically lower pair is stale and must never
	// overwrite a newer placement — not even one with a higher round, if
	// it comes from a superseded epoch. This is what stops a formerly
	// partitioned delegate, whose round counter may have raced ahead,
	// from rolling the cluster back when it reconnects.
	mapEpoch uint64
	mapRound uint64
	// staleMaps counts maps rejected for a stale round within the current
	// epoch; staleEpochs counts maps rejected for a superseded epoch;
	// tagMismatches counts maps rejected for carrying a different
	// placement strategy than this node runs (outside any dual-tag
	// window); crossTag counts maps rejected during a dual-tag window
	// for carrying neither the current nor the target strategy;
	// undecodable counts maps whose payload failed to decode at all.
	staleMaps     uint64
	staleEpochs   uint64
	tagMismatches uint64
	crossTag      uint64
	undecodable   uint64
	// dualTagTarget, when non-empty, names the one foreign strategy tag
	// the node will accept an install of — the live-migration window.
	dualTagTarget string
	// dualTagInstalls counts cutovers: installs that switched the
	// node's strategy through an open window.
	dualTagInstalls uint64
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

// NewNode creates an agent with its own copy of the initial placement,
// decoded from its tagged snapshot (a raw ANU map or a tagged container
// — see package placement). All nodes must be constructed from
// byte-identical snapshots. cfg configures the ANU controller when the
// snapshot is an ANU map; the zero value means the defaults.
func NewNode(id NodeID, snapshot []byte, cfg anu.ControllerConfig, tr Transport) (*Node, error) {
	return NewNodeWithOptions(id, snapshot, placement.Options{Controller: cfg}, tr)
}

// NewNodeWithOptions is NewNode with the full strategy construction
// options (controller config, load bound, ...).
func NewNodeWithOptions(id NodeID, snapshot []byte, opts placement.Options, tr Transport) (*Node, error) {
	s, err := placement.Decode(snapshot, opts)
	if err != nil {
		return nil, fmt.Errorf("delegate: node %d: %w", id, err)
	}
	if !s.Has(id) {
		return nil, fmt.Errorf("delegate: node %d not a member of the placement", id)
	}
	return &Node{
		id:      id,
		up:      true,
		s:       s,
		opts:    opts,
		tr:      tr,
		pending: make(map[NodeID]Report),
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Up reports whether the node is alive.
func (n *Node) Up() bool { return n.up }

// Placement returns the node's current placement strategy (read-only
// use).
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

// Fingerprint returns a cheap digest of the node's replicated state,
// used to assert cluster-wide convergence.
func (n *Node) Fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range n.s.Encode() {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Crash takes the node down: it stops reporting, applying maps, and
// acting as delegate. Its in-memory state is discarded, as a real crash
// would.
func (n *Node) Crash() {
	n.up = false
	n.last = Report{}
	n.pending = make(map[NodeID]Report)
	n.dualTagTarget = "" // an open migration window is in-memory state
	if rs, ok := n.s.(placement.SoftStateResetter); ok {
		rs.ResetSoftState()
	}
}

// Restart brings a crashed node back using a fresh snapshot obtained
// from a live peer (in a real cluster, from shared storage or the
// delegate). Its smoothing state starts empty — the protocol tolerates
// that because the delegate is stateless. The pre-crash measurement is
// zeroed: the first report after a restart must describe the restarted
// process, not replay load data from before the crash. The round guard
// also resets — the snapshot is the node's new baseline and any map
// that arrives afterwards is newer than what the node knows.
func (n *Node) Restart(snapshot []byte) error {
	s, err := placement.Decode(snapshot, n.opts)
	if err != nil {
		return fmt.Errorf("delegate: restart node %d: %w", n.id, err)
	}
	if s.Name() != n.s.Name() {
		return fmt.Errorf("delegate: restart node %d: snapshot carries strategy %q, node runs %q", n.id, s.Name(), n.s.Name())
	}
	n.s = s
	n.up = true
	n.last = Report{}
	n.pending = make(map[NodeID]Report)
	n.mapEpoch = 0
	n.mapRound = 0
	n.dualTagTarget = ""
	return nil
}

// Resume restores the node's install fence after a durable restart: the
// caller recovered (epoch, round) — and the matching map snapshot passed
// to Restart — from a journal, so the node must reject any install older
// than what it already persisted.
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

// SendReport transmits the node's measurement to the given delegate.
func (n *Node) SendReport(to NodeID, epoch, round uint64) {
	if !n.up {
		return
	}
	n.tr.Send(Message{
		Kind:    MsgReport,
		From:    n.id,
		To:      to,
		Epoch:   epoch,
		Round:   round,
		Payload: encodeReport(n.last),
	})
}

// CollectReports drains the node's inbox, keeping latency reports for
// the given round and applying the newest map message, if any. It
// returns whether a map update was applied.
func (n *Node) CollectReports(round uint64) (mapApplied bool, err error) {
	if !n.up {
		// A dead node's mail is discarded.
		n.tr.Deliver(n.id)
		return false, nil
	}
	for _, msg := range n.tr.Deliver(n.id) {
		switch msg.Kind {
		case MsgReport:
			if msg.Round != round {
				continue // stale report from a previous round
			}
			rep, derr := decodeReport(msg.Payload)
			if derr != nil {
				return mapApplied, derr
			}
			n.pending[msg.From] = rep
		case MsgMap:
			if !supersedes(msg.Epoch, msg.Round, n.mapEpoch, n.mapRound) {
				// A reordered, duplicated or partition-replayed map
				// carrying an older (epoch, round) must never overwrite
				// a newer placement: installed fences are monotonic.
				if msg.Epoch < n.mapEpoch {
					n.staleEpochs++
				} else {
					n.staleMaps++
				}
				continue
			}
			s, derr := placement.Decode(msg.Payload, n.opts)
			if derr != nil {
				// A corrupt map must never be installed.
				n.undecodable++
				continue
			}
			if s.Name() != n.s.Name() {
				if n.dualTagTarget == "" {
					// A placement from a different strategy must never be
					// installed, whatever its fence says.
					n.tagMismatches++
					continue
				}
				if s.Name() != n.dualTagTarget {
					// Even mid-migration only the one named target tag is
					// admissible; anything else is still poison.
					n.crossTag++
					continue
				}
				// The cutover: a superseding map carrying the migration
				// target installs, switches the node's strategy, and
				// closes the window.
				n.dualTagInstalls++
				n.dualTagTarget = ""
			}
			if ad, ok := s.(placement.StateAdopter); ok {
				// Keep soft state (latency smoothing) warm across installs,
				// as the pre-placement node did by holding one controller
				// for the life of the process.
				ad.AdoptState(n.s)
			}
			n.s = s
			n.mapEpoch = msg.Epoch
			n.mapRound = msg.Round
			mapApplied = true
		default:
			return mapApplied, fmt.Errorf("delegate: node %d: unknown message kind %d", n.id, msg.Kind)
		}
	}
	return mapApplied, nil
}

// PendingReports returns how many distinct servers' reports the node
// currently holds as delegate — a progress probe for transports that
// deliver asynchronously.
func (n *Node) PendingReports() int { return len(n.pending) }

// Reported returns the ids whose reports the node currently holds as
// delegate, in unspecified order.
func (n *Node) Reported() []NodeID {
	out := make([]NodeID, 0, len(n.pending))
	for id := range n.pending {
		out = append(out, id)
	}
	return out
}

// MapRound returns the round of the node's installed map: 0 until the
// first install (or after a Restart), then monotonically non-decreasing
// within an epoch for the life of the process.
func (n *Node) MapRound() uint64 { return n.mapRound }

// MapEpoch returns the view epoch of the node's installed map: 0 until
// the first install (or after a Restart), then monotonically
// non-decreasing for the life of the process.
func (n *Node) MapEpoch() uint64 { return n.mapEpoch }

// StaleMapsRejected returns how many stale-round map messages the node
// has refused to install.
func (n *Node) StaleMapsRejected() uint64 { return n.staleMaps }

// StaleEpochsRejected returns how many map messages from superseded
// epochs the node has refused to install.
func (n *Node) StaleEpochsRejected() uint64 { return n.staleEpochs }

// TagMismatchesRejected returns how many map messages the node refused
// to install because they carried a different placement strategy.
func (n *Node) TagMismatchesRejected() uint64 { return n.tagMismatches }

// CrossTagRejected returns how many map messages the node refused
// during a dual-tag window because they carried neither the current
// nor the migration-target strategy.
func (n *Node) CrossTagRejected() uint64 { return n.crossTag }

// UndecodableMapsRejected returns how many map messages the node
// refused because their payload failed to decode.
func (n *Node) UndecodableMapsRejected() uint64 { return n.undecodable }

// DualTagInstalls returns how many installs cut the node over to a
// migration-target strategy through an open dual-tag window.
func (n *Node) DualTagInstalls() uint64 { return n.dualTagInstalls }

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

// RunDelegate executes the delegate role for one round over the reports
// collected so far: servers that did not report are treated as failed
// (the paper's failure handling — a silent server's region goes to the
// survivors), the controller rescales the map, and the new map is
// broadcast to every member. The pending report set is cleared.
func (n *Node) RunDelegate(epoch, round uint64, members []NodeID) error {
	snapshot, err := n.Rescale(epoch, round, members)
	if err != nil {
		return err
	}
	for _, id := range members {
		if id == n.id {
			continue
		}
		n.tr.Send(Message{
			Kind:    MsgMap,
			From:    n.id,
			To:      id,
			Epoch:   epoch,
			Round:   round,
			Payload: snapshot,
		})
	}
	return nil
}

// Rescale is RunDelegate without the broadcast: it tunes over members
// exactly as RunDelegate does, stamps the fence, clears the pending
// reports, and returns the encoded map for the caller to distribute. A
// caller that tunes over a subset of its peers uses it to address the
// map beyond that subset.
func (n *Node) Rescale(epoch, round uint64, members []NodeID) ([]byte, error) {
	if !n.up {
		return nil, fmt.Errorf("delegate: node %d is down", n.id)
	}
	reports := make([]placement.Report, 0, len(members))
	for _, id := range members {
		rep, ok := n.pending[id]
		if !ok && id != n.id {
			reports = append(reports, placement.Report{Server: id, Failed: true})
			continue
		}
		if id == n.id {
			rep = n.last // the delegate reports to itself directly
		}
		reports = append(reports, placement.Report{
			Server:   id,
			Requests: rep.Requests,
			Latency:  float64(rep.LatencyMicros) / 1e6,
		})
	}
	if _, err := n.s.Tune(reports); err != nil {
		return nil, err
	}
	n.pending = make(map[NodeID]Report)
	// The delegate's own map is now the round's authoritative placement;
	// stamping the fence keeps the guard effective if this node later
	// receives a late broadcast from a previous delegate.
	if supersedes(epoch, round, n.mapEpoch, n.mapRound) {
		n.mapEpoch = epoch
		n.mapRound = round
	}
	return n.s.Encode(), nil
}

// Elect returns the delegate for a membership view: the lowest-numbered
// live node, the paper's "elected delegate" with its stateless
// succession rule.
func Elect(nodes []*Node) (NodeID, bool) {
	best := NodeID(-1)
	for _, n := range nodes {
		if !n.Up() {
			continue
		}
		if best < 0 || n.ID() < best {
			best = n.ID()
		}
	}
	return best, best >= 0
}
