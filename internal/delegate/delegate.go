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
// a cluster. A live migration is an ordinary map too: the delegate
// sends the target strategy's placement inside a migration window
// (placement.Window) that also names the strategy it replaces. A node
// admits its strategy's tag, plus the window's while it holds one, and
// a map installs only if its tags meet the node's. So a node on the old
// strategy installs the window map and starts serving the target, and
// a node holding the window then installs the plain target map that
// closes it. Rescale opens the window, keeps it for a fixed number of
// rounds and closes it, from the installed map alone, so a re-elected
// delegate continues a migration where its predecessor left it.
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
	Kind    MsgKind
	From    NodeID
	To      NodeID
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

// Installed is one map a node holds: the placement strategy, the
// migration window its bytes carry, their canonical encoding and
// fingerprint, and the (epoch, round) fence it was installed at. A node
// never changes an Installed once built: construction, install, Rescale
// and Resume each build a new one, so a reader holding one sees a single
// coherent map however far the node has moved on. Every field is
// read-only.
type Installed struct {
	// Strategy is the placement. The node never mutates it (soft state
	// such as ANU's controller aside): Rescale tunes a clone, and
	// installs decode a fresh one.
	Strategy placement.Strategy
	// Window is the migration window the map holds, closed when it holds
	// none.
	Window placement.Window
	// Encoded is the map's canonical encoding (Strategy's, inside Window
	// when it is open). It may also be a delivered payload, a broadcast's
	// payload, or a journal record's source.
	Encoded []byte
	// Fingerprint is SnapshotFingerprint(Encoded).
	Fingerprint uint64
	// (Epoch, Round) is the install fence: a MsgMap with a
	// lexicographically lower pair is stale and must never overwrite a
	// newer placement — not even one with a higher round, if it comes
	// from a superseded epoch. This is what stops a formerly partitioned
	// delegate, whose round counter may have raced ahead, from rolling
	// the cluster back when it reconnects. Both are 0 until the first
	// install or Resume.
	Epoch, Round uint64
}

// newInstalled builds the Installed for s holding win, encoded as enc,
// at fence (epoch, round). Accepted maps re-encode byte-identically (the
// placement conformance suite and the decoder fuzzers assert it), so a
// decoded map's payload is its encoding.
func newInstalled(s placement.Strategy, win placement.Window, enc []byte, epoch, round uint64) *Installed {
	return &Installed{Strategy: s, Window: win, Encoded: enc, Fingerprint: SnapshotFingerprint(enc), Epoch: epoch, Round: round}
}

// Node is one server's management agent. It holds the node's installed
// map and, when elected, the delegate logic.
type Node struct {
	id NodeID
	// opts reproduces the construction configuration when installs
	// decode fresh snapshots.
	opts placement.Options
	// m is the installed map, replaced whole wherever it changes, so
	// reading its bytes or fingerprint never re-encodes.
	m    *Installed
	last Report // most recent local measurement
	// pending holds the latest report of each member of the installed
	// placement, for the delegate's next Rescale. Reports from
	// non-members are dropped, so its size is bounded by the membership.
	// tuned is the round of the last successful Rescale: a report for it
	// arrives after its tune, and is dropped rather than counted toward
	// the next round.
	pending map[NodeID]Report
	tuned   uint64
	// installs counts the map messages the node refused, by cause.
	installs InstallStats
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
	// TagMismatchesRejected counts placements refused because none of
	// their strategy tags (the strategy, and the window's) was one the
	// node admits — a misconfigured peer, or a node that missed a whole
	// migration window.
	TagMismatchesRejected uint64
	// UndecodableMapsRejected counts payloads that failed to decode at
	// all (truncated or corrupt snapshots).
	UndecodableMapsRejected uint64
}

// NewNode creates an agent with its own copy of the initial placement,
// decoded from its tagged snapshot (a raw ANU map or a tagged container,
// possibly inside a migration window — see package placement) with
// opts, which also decode every later install. All nodes must be
// constructed from byte-identical snapshots; a restarting node is
// constructed from its journaled snapshot and then Resumed. NewNode
// copies the snapshot, so the caller may reuse it.
func NewNode(id NodeID, snapshot []byte, opts placement.Options) (*Node, error) {
	s, win, err := placement.DecodeAfter(snapshot, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("delegate: node %d: %w", id, err)
	}
	if !s.Has(id) {
		return nil, fmt.Errorf("delegate: node %d not a member of the placement", id)
	}
	return &Node{
		id:      id,
		opts:    opts,
		m:       newInstalled(s, win, bytes.Clone(snapshot), 0, 0),
		pending: make(map[NodeID]Report),
	}, nil
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

// Installed returns the node's installed map. The value never changes;
// the node replaces it whole on every install, Rescale and Resume.
func (n *Node) Installed() *Installed { return n.m }

// Placement returns the node's current placement strategy (read-only
// use); see Installed.Strategy.
func (n *Node) Placement() placement.Strategy { return n.m.Strategy }

// Strategy returns the registered tag of the node's placement strategy.
func (n *Node) Strategy() string { return n.m.Strategy.Name() }

// Window returns the migration window the installed map holds, closed
// when it holds none.
func (n *Node) Window() placement.Window { return n.m.Window }

// Map returns the node's current ANU placement map (read-only use), or
// nil when the node runs a non-ANU strategy.
func (n *Node) Map() *anu.Map {
	if a, ok := n.m.Strategy.(*placement.ANU); ok {
		return a.Map()
	}
	return nil
}

// Fingerprint returns the SnapshotFingerprint of the node's encoded
// placement, used to assert cluster-wide convergence. It is computed once
// per placement change, so reading it costs nothing.
func (n *Node) Fingerprint() uint64 { return n.m.Fingerprint }

// Encoded returns the canonical encoding of the node's placement, equal
// to Placement().Encode() but without re-encoding. The slice is shared:
// callers must not modify it, and copy it if they hand it out.
func (n *Node) Encoded() []byte { return n.m.Encoded }

// Resume restores the node's install fence after a durable restart: the
// caller recovered (epoch, round) — and the matching map snapshot the
// node was constructed from — from a journal, so the node must reject
// any install older than what it already persisted.
func (n *Node) Resume(epoch, round uint64) {
	m := *n.m
	m.Epoch, m.Round = epoch, round
	n.m = &m
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
// (epoch, round) fence supersedes the installed one, it decodes, and
// its tags meet the node's (see admits); otherwise it is counted in
// InstallStats and dropped.
// Receive reports whether a map installed. An error rejects a malformed message (a report payload of
// the wrong size, or an unknown kind) and nothing else.
//
// An installed Payload becomes the node's Encoded() bytes, so the
// caller must not modify it afterwards. Copies of one broadcast may
// share a payload: every holder treats it as read-only.
func (n *Node) Receive(msg Message, round uint64) (installed bool, err error) {
	switch msg.Kind {
	case MsgReport:
		if msg.Round != round || round == n.tuned || !n.m.Strategy.Has(msg.From) {
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
	if !supersedes(msg.Epoch, msg.Round, n.m.Epoch, n.m.Round) {
		// A reordered, duplicated or partition-replayed map carrying an
		// older (epoch, round) must never overwrite a newer placement:
		// installed fences are monotonic.
		if msg.Epoch < n.m.Epoch {
			n.installs.StaleEpochsRejected++
		} else {
			n.installs.StaleMapsRejected++
		}
		return false
	}
	// Decoding after the installed placement lets a strategy reuse what
	// the map leaves unchanged (chord's ring, while the members stay).
	s, win, err := placement.DecodeAfter(msg.Payload, n.opts, n.m.Strategy)
	if err != nil {
		// A corrupt map must never be installed.
		n.installs.UndecodableMapsRejected++
		return false
	}
	if !n.admits(s.Name(), win) {
		// A placement from a different strategy must never be
		// installed, whatever its fence says.
		n.installs.TagMismatchesRejected++
		return false
	}
	if ad, ok := s.(placement.StateAdopter); ok {
		// Keep soft state (latency smoothing) warm across installs, as
		// the pre-placement node did by holding one controller for the
		// life of the process.
		ad.AdoptState(n.m.Strategy)
	}
	for id := range n.pending {
		if !s.Has(id) {
			delete(n.pending, id) // keep pending within the membership
		}
	}
	n.m = newInstalled(s, win, msg.Payload, msg.Epoch, msg.Round)
	return true
}

// admits reports whether a map serving strategy tag with window win may
// replace the installed one: whether the map's tags (tag, and the
// window's while open) meet the node's (its strategy's, and its
// window's while open). So a node on A installs a map serving B inside
// a window from A, a node holding that window installs the plain B map
// that closes it, and a node on plain A refuses a plain B map.
func (n *Node) admits(tag string, win placement.Window) bool {
	name, from := n.m.Strategy.Name(), n.m.Window.From
	return tag == name || tag == from ||
		win.IsOpen() && (win.From == name || win.From == from)
}

// PendingReports returns how many distinct members' reports the node
// currently holds for its next Rescale — the delegate's quorum probe.
// It never exceeds the placement's member count.
func (n *Node) PendingReports() int { return len(n.pending) }

// MapRound returns the round of the node's installed map: 0 until the
// first install or Resume, then monotonically non-decreasing within an
// epoch for the life of the process.
func (n *Node) MapRound() uint64 { return n.m.Round }

// MapEpoch returns the view epoch of the node's installed map: 0 until
// the first install or Resume, then monotonically non-decreasing for
// the life of the process.
func (n *Node) MapEpoch() uint64 { return n.m.Epoch }

// InstallStats returns the node's map-message counters.
func (n *Node) InstallStats() InstallStats { return n.installs }

// Rescale executes the delegate role for one round: placement.TuneRound
// over members, with the pending reports of up members and the node's
// own latest measurement as the reports. An up member that did not
// report is tuned as idle; a down member is failed, so its region goes
// to the survivors (the paper's failure handling); an up member the
// placement holds at zero share is re-admitted with an equal share.
//
// to, when it names a strategy other than the node's, migrates: the
// round's map is instead a fresh placement of to over members, each
// down member failed, inside a window from the node's strategy opened
// at round. Otherwise a window the installed map holds stays open for
// rounds below its opening round plus window, and the first map at or
// past that is plain, which closes it. So the round's map follows from
// the installed map, the reports and to alone.
//
// The round builds a new placement and installs it only on success: a
// failed round returns the error and leaves Placement(), Encoded() and
// Fingerprint() as they were. A node thus never mutates a placement it
// has set, so a caller may publish Placement() to readers without
// copying it. On success the fence is stamped and the pending reports
// are cleared; a report for round that arrives afterwards is dropped as
// late. It returns the encoded map for the caller to distribute to
// every member. The returned bytes are the node's own Encoded() slice:
// send them, never modify them.
func (n *Node) Rescale(epoch, round uint64, members []placement.Member, to string, window uint64) ([]byte, error) {
	s, win := n.m.Strategy, n.m.Window
	if to != "" && to != s.Name() {
		fresh, err := n.fresh(to, members)
		if err != nil {
			return nil, err
		}
		s, win = fresh, placement.Window{From: s.Name(), Opened: round}
	} else {
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
		s = s.Clone()
		if err := placement.TuneRound(s, members, reports); err != nil {
			return nil, err
		}
		if win.IsOpen() && round >= win.Opened+window {
			win = placement.Window{}
		}
	}
	n.pending = make(map[NodeID]Report)
	n.tuned = round
	// The delegate's own map is now the round's authoritative placement;
	// stamping the fence keeps the guard effective if this node later
	// receives a late broadcast from a previous delegate.
	fe, fr := n.m.Epoch, n.m.Round
	if supersedes(epoch, round, fe, fr) {
		fe, fr = epoch, round
	}
	enc := s.Encode()
	if win.IsOpen() {
		enc = placement.EncodeWindow(win, enc)
	}
	n.m = newInstalled(s, win, enc, fe, fr)
	return enc, nil
}

// fresh builds a cold placement of strategy tag over members, with each
// down member failed, as a migration's first map.
func (n *Node) fresh(tag string, members []placement.Member) (placement.Strategy, error) {
	ids := make([]placement.ServerID, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	s, err := placement.New(tag, ids, n.opts)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if !m.Up {
			if err := s.Fail(m.ID); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
