package delegate

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"anurand/internal/anu"
	"anurand/internal/hashx"
	"anurand/internal/placement"
)

// nodeOpts configures every test node as the cluster runtime would.
var nodeOpts = placement.Options{Controller: anu.DefaultControllerConfig()}

// testNodes builds k nodes, ids 0..k-1, from one shared ANU snapshot, as
// every member of a cluster starts.
func testNodes(t testing.TB, k int) []*Node {
	t.Helper()
	ids := make([]NodeID, k)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	m, err := anu.New(hashx.NewFamily(42), ids)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := m.Encode()
	nodes := make([]*Node, k)
	for i, id := range ids {
		if nodes[i], err = NewNode(id, snapshot, nodeOpts); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// allUp is the membership view with every node up.
func allUp(nodes []*Node) []placement.Member {
	members := make([]placement.Member, len(nodes))
	for i, n := range nodes {
		members[i] = placement.Member{ID: n.ID(), Up: true}
	}
	return members
}

// step runs one round of the protocol in epoch 1, with no transport:
// node 0, the delegate, receives every other node's report for round
// and rescales with every node up, and every other node receives the
// map.
func step(t testing.TB, nodes []*Node, round uint64) {
	t.Helper()
	del := nodes[0]
	for _, n := range nodes[1:] {
		if _, err := del.Receive(n.Report(del.ID(), 1, round), round); err != nil {
			t.Fatal(err)
		}
	}
	snapshot, err := del.Rescale(1, round, allUp(nodes), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		if _, err := n.Receive(Message{Kind: MsgMap, From: del.ID(), To: n.ID(), Epoch: 1, Round: round, Payload: snapshot}, round); err != nil {
			t.Fatal(err)
		}
	}
}

// converged reports whether every node holds a byte-identical map.
func converged(nodes []*Node) bool {
	for _, n := range nodes[1:] {
		if n.Fingerprint() != nodes[0].Fingerprint() {
			return false
		}
	}
	return true
}

// observeHeterogeneous feeds each node a measurement from the paper's
// closed-loop model: latency proportional to region share over speed.
func observeHeterogeneous(nodes []*Node, speeds map[NodeID]float64) {
	for _, n := range nodes {
		share := float64(n.Map().Length(n.ID())) / float64(anu.Half)
		if share == 0 {
			n.Observe(0, 0)
			continue
		}
		n.Observe(uint64(1+1000*share), 0.002+share/speeds[n.ID()])
	}
}

func paperSpeeds() map[NodeID]float64 {
	return map[NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
}

func TestStepConvergesMaps(t *testing.T) {
	nodes := testNodes(t, 5)
	speeds := paperSpeeds()
	for round := uint64(1); round <= 30; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
		if !converged(nodes) {
			t.Fatalf("round %d: nodes diverged", round)
		}
	}
	// The shared map must have adapted: the fastest server's region
	// should exceed the slowest's on every node.
	for _, n := range nodes {
		m := n.Map()
		if m.Length(4) <= m.Length(0) {
			t.Fatalf("node %d: map did not adapt (len4=%d len0=%d)", n.ID(), m.Length(4), m.Length(0))
		}
	}
}

func TestLostReportDoesNotKillServerPermanently(t *testing.T) {
	// A lost report leaves an up server idle for that round, never
	// failed: the delegate fails only members that are down. Once
	// reports flow again the server must still hold its region.
	nodes := testNodes(t, 3)
	speeds := map[NodeID]float64{0: 3, 1: 3, 2: 3}
	observeHeterogeneous(nodes, speeds)
	step(t, nodes, 1)
	// Everything is lost for round 2: the delegate hears neither node 1
	// nor node 2, and its map reaches neither.
	observeHeterogeneous(nodes, speeds)
	if _, err := nodes[0].Rescale(1, 2, allUp(nodes), "", 0); err != nil {
		t.Fatal(err)
	}
	// They were tuned as idle, not failed. What must hold: the cluster
	// still steps and converges, and neither lost its region.
	for round := uint64(3); round <= 5; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
	}
	if !converged(nodes) {
		t.Fatal("cluster diverged after transient blackout")
	}
	for _, id := range []NodeID{1, 2} {
		if l := nodes[0].Map().Length(id); l < anu.Half/6 {
			t.Errorf("node %d holds %d ticks after a lost report, want at least half an equal share (%d)", id, l, anu.Half/6)
		}
	}
}

// TestRescaleLeavesDistributionToCaller pins Rescale's contract: it
// tunes and stamps the fence, returning the delegate's new placement
// for the caller to distribute. (That it sends nothing is the type's
// doing: a Node holds no transport.)
func TestRescaleLeavesDistributionToCaller(t *testing.T) {
	nodes := testNodes(t, 3)
	observeHeterogeneous(nodes, paperSpeeds())
	del := nodes[0]
	snapshot, err := del.Rescale(1, 1, allUp(nodes), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot, del.Placement().Encode()) {
		t.Error("Rescale returned bytes other than the delegate's new placement")
	}
	if del.MapEpoch() != 1 || del.MapRound() != 1 {
		t.Errorf("fence (%d,%d) after Rescale, want (1,1)", del.MapEpoch(), del.MapRound())
	}
}

func TestReportEncodingRoundTrip(t *testing.T) {
	in := Report{Requests: 12345, LatencyMicros: 987654321}
	out, err := decodeReport(encodeReport(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
	if _, err := decodeReport([]byte{1, 2, 3}); err == nil {
		t.Fatal("short report accepted")
	}
}

func TestNodeConstructionErrors(t *testing.T) {
	if _, err := NewNode(0, []byte("garbage"), nodeOpts); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	snap := testNodes(t, 2)[0].Map().Encode()
	if _, err := NewNode(99, snap, nodeOpts); err == nil {
		t.Fatal("non-member node accepted")
	}
}

func TestCorruptMapMessageIgnored(t *testing.T) {
	n := testNodes(t, 2)[1]
	before := n.Fingerprint()
	if _, err := n.Receive(Message{
		Kind:    MsgMap,
		From:    0,
		To:      1,
		Round:   1,
		Payload: []byte("corrupted payload"),
	}, 1); err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() != before {
		t.Fatal("corrupt map installed")
	}
}

func TestSharedStateIsSnapshotSized(t *testing.T) {
	// The protocol's map message payload is exactly the O(k) snapshot —
	// the paper's shared-state claim at the protocol level.
	nodes := testNodes(t, 5)
	observeHeterogeneous(nodes, paperSpeeds())
	step(t, nodes, 1)
	snapLen := len(nodes[0].Map().Encode())
	if snapLen == 0 || snapLen > 4096 {
		t.Fatalf("snapshot size %d implausible for k=5", snapLen)
	}
}

// TestMalformedReportRejectsOnlyItself: a malformed report received
// ahead of the round's map is rejected alone, and the map behind it
// still installs.
func TestMalformedReportRejectsOnlyItself(t *testing.T) {
	nodes := testNodes(t, 3)
	observeHeterogeneous(nodes, paperSpeeds())
	_, err := nodes[1].Receive(Message{Kind: MsgReport, From: 2, To: 1, Epoch: 1, Round: 1, Payload: []byte{1, 2, 3}}, 1)
	if err == nil || !strings.Contains(err.Error(), "report payload is 3 bytes") {
		t.Fatalf("Receive returned %v, want the malformed report's rejection", err)
	}
	step(t, nodes, 1)
	if n := nodes[1]; n.MapRound() != 1 {
		t.Fatalf("node 1 map round %d behind a malformed report, want 1", n.MapRound())
	}
	if !converged(nodes) {
		t.Fatal("cluster diverged over a malformed report")
	}
}

// TestReportsBoundedByMembership: reports from senders outside the
// placement are dropped, so the pending set never outgrows the members
// however many ids a peer sprays.
func TestReportsBoundedByMembership(t *testing.T) {
	n := testNodes(t, 3)[0]
	payload := encodeReport(Report{Requests: 1, LatencyMicros: 1})
	for id := NodeID(-5); id < 100; id++ {
		if _, err := n.Receive(Message{Kind: MsgReport, From: id, To: 0, Round: 1, Payload: payload}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.PendingReports(); got != 3 {
		t.Fatalf("%d pending reports, want one per member (3)", got)
	}
}

// TestLateReportDropped: a report for a round the delegate already
// rescaled arrives after its tune, and must not count toward the next.
func TestLateReportDropped(t *testing.T) {
	nodes := testNodes(t, 3)
	n := nodes[0]
	if _, err := n.Rescale(1, 1, allUp(nodes), "", 0); err != nil {
		t.Fatal(err)
	}
	late := Message{Kind: MsgReport, From: 1, To: 0, Round: 1, Payload: encodeReport(Report{Requests: 1})}
	if _, err := n.Receive(late, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.PendingReports(); got != 0 {
		t.Fatalf("%d pending reports after a late one, want 0", got)
	}
}

// TestStaleMapRoundIgnored is the regression test for the map round
// guard: a reordered MsgMap from an old round must never overwrite a
// newer placement, while genuinely newer maps still install.
func TestStaleMapRoundIgnored(t *testing.T) {
	nodes := testNodes(t, 2)
	staleSnapshot := nodes[1].Map().Encode() // the bootstrap placement
	speeds := map[NodeID]float64{0: 1, 1: 9}
	const rounds = 5
	for round := uint64(1); round <= rounds; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
	}
	n := nodes[1]
	if n.MapRound() != rounds {
		t.Fatalf("map round %d, want %d", n.MapRound(), rounds)
	}
	before := n.Fingerprint()
	// A delayed duplicate of the round-1 broadcast arrives now.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: 1, Round: 1, Payload: staleSnapshot}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if applied || n.Fingerprint() != before {
		t.Fatal("stale-round map was installed over a newer placement")
	}
	if got := n.InstallStats().StaleMapsRejected; got != 1 {
		t.Fatalf("StaleMapsRejected = %d, want 1", got)
	}
	if n.MapRound() != rounds {
		t.Fatalf("map round moved backwards to %d", n.MapRound())
	}
	// A newer round still installs.
	next := uint64(rounds + 10)
	applied, err = n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: 1, Round: next, Payload: nodes[0].Map().Encode()}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || n.MapRound() != next {
		t.Fatalf("newer map not installed (applied=%v round=%d)", applied, n.MapRound())
	}
}

// TestStaleEpochFenced is the regression test for epoch fencing: a map
// from a superseded view epoch must be rejected even when its round
// number is far ahead of the installed one — the partitioned-delegate
// scenario a round guard alone cannot catch — while a higher epoch
// installs even at a lower round.
func TestStaleEpochFenced(t *testing.T) {
	nodes := testNodes(t, 2)
	oldSnapshot := nodes[1].Map().Encode()
	speeds := map[NodeID]float64{0: 1, 1: 9}
	for round := uint64(1); round <= 3; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
	}
	n := nodes[1]
	epoch, round := n.MapEpoch(), n.MapRound()
	if epoch == 0 {
		t.Fatal("install left the fence at epoch 0")
	}
	before := n.Fingerprint()
	// A delegate from a superseded epoch wakes up with a round counter
	// that raced far ahead while it was partitioned.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch - 1, Round: round + 1000, Payload: oldSnapshot}, round)
	if err != nil {
		t.Fatal(err)
	}
	if applied || n.Fingerprint() != before {
		t.Fatal("stale-epoch map was installed over a newer placement")
	}
	if got := n.InstallStats().StaleEpochsRejected; got != 1 {
		t.Fatalf("StaleEpochsRejected = %d, want 1", got)
	}
	if n.MapEpoch() != epoch || n.MapRound() != round {
		t.Fatalf("fence moved to (%d, %d), want (%d, %d)", n.MapEpoch(), n.MapRound(), epoch, round)
	}
	// A later epoch installs even though its round restarts lower.
	applied, err = n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch + 1, Round: 1, Payload: nodes[0].Map().Encode()}, round)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || n.MapEpoch() != epoch+1 || n.MapRound() != 1 {
		t.Fatalf("higher-epoch map not installed (applied=%v fence=(%d,%d))", applied, n.MapEpoch(), n.MapRound())
	}
}

// TestResumeRestoresFence verifies durable-restart semantics, as the
// cluster runtime restarts a node: after NewNode from a journal-recovered
// snapshot, Resume re-arms the install fence so replayed older maps are
// still rejected.
func TestResumeRestoresFence(t *testing.T) {
	nodes := testNodes(t, 2)
	oldSnapshot := nodes[1].Map().Encode()
	speeds := map[NodeID]float64{0: 1, 1: 9}
	for round := uint64(1); round <= 3; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
	}
	epoch, round := nodes[1].MapEpoch(), nodes[1].MapRound()
	recovered := nodes[1].Map().Encode()
	n, err := NewNode(1, recovered, nodeOpts)
	if err != nil {
		t.Fatal(err)
	}
	n.Resume(epoch, round)
	if n.MapEpoch() != epoch || n.MapRound() != round {
		t.Fatalf("Resume fence = (%d, %d), want (%d, %d)", n.MapEpoch(), n.MapRound(), epoch, round)
	}
	// The pre-crash bootstrap map replayed at a lower (epoch, round)
	// must not install after the durable restart.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch - 1, Round: round + 50, Payload: oldSnapshot}, round)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("replayed stale map installed after durable restart")
	}
	if got := n.InstallStats().StaleEpochsRejected; got != 1 {
		t.Fatalf("StaleEpochsRejected = %d, want 1", got)
	}
}

// TestInstalledIsReplacedWhole: a Rescale, an install and a Resume each
// give the node a new Installed, coherent in itself, and leave the one
// a reader took before exactly as it was.
func TestInstalledIsReplacedWhole(t *testing.T) {
	nodes := testNodes(t, 3)
	held := []*Installed{nodes[0].Installed(), nodes[1].Installed()}
	copies := []Installed{*held[0], *held[1]}
	observeHeterogeneous(nodes, paperSpeeds())
	step(t, nodes, 1)
	nodes[1].Resume(5, 9)
	for i, n := range nodes[:2] {
		if got := *held[i]; got.Epoch != copies[i].Epoch || got.Round != copies[i].Round ||
			got.Fingerprint != copies[i].Fingerprint || !bytes.Equal(got.Encoded, copies[i].Encoded) ||
			got.Strategy != copies[i].Strategy || got.Window != copies[i].Window {
			t.Fatalf("node %d: the Installed held before the round changed", i)
		}
		m := n.Installed()
		if m == held[i] || m.Fingerprint != SnapshotFingerprint(m.Encoded) || !bytes.Equal(m.Strategy.Encode(), m.Encoded) {
			t.Fatalf("node %d: after the round the Installed is the held one or incoherent", i)
		}
	}
	if m := nodes[0].Installed(); m.Epoch != 1 || m.Round != 1 {
		t.Fatalf("delegate fence (%d, %d) after Rescale, want (1, 1)", m.Epoch, m.Round)
	}
	if m := nodes[1].Installed(); m.Epoch != 5 || m.Round != 9 || m.Fingerprint != nodes[0].Fingerprint() {
		t.Fatalf("resumed follower holds (%d, %d, %#x), want (5, 9, %#x)", m.Epoch, m.Round, m.Fingerprint, nodes[0].Fingerprint())
	}
}

// TestObserveClampsExtremeLatency is the regression test for the
// overflow clamp: +Inf and astronomically large latencies must
// saturate at MaxLatencyMicros instead of hitting the
// platform-dependent out-of-range float64→uint64 conversion.
func TestObserveClampsExtremeLatency(t *testing.T) {
	n := testNodes(t, 2)[0]
	cases := []struct {
		latency float64
		want    uint64
	}{
		{0.5, 500000},
		{-3, 0},
		{math.NaN(), 0},
		{math.Inf(1), MaxLatencyMicros},
		{1.8e13, MaxLatencyMicros}, // the old uint64 overflow threshold
		{1e300, MaxLatencyMicros},  // far beyond any uint64
		{float64(MaxLatencyMicros), MaxLatencyMicros}, // exactly at the cap (in seconds ×1e6)
	}
	for _, tc := range cases {
		n.Observe(7, tc.latency)
		if n.last.LatencyMicros != tc.want {
			t.Errorf("Observe(%g) -> %d micros, want %d", tc.latency, n.last.LatencyMicros, tc.want)
		}
	}
}
