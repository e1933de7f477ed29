package delegate

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"anurand/internal/anu"
	"anurand/internal/placement"
	"anurand/internal/rng"
)

// rngNew keeps the chaos property test readable.
func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

func testCluster(t *testing.T, k int) *Cluster {
	t.Helper()
	c, err := NewCluster(k, 42, anu.DefaultControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// observeHeterogeneous feeds each node a measurement from the paper's
// closed-loop model: latency proportional to region share over speed.
func observeHeterogeneous(c *Cluster, speeds map[NodeID]float64) {
	for _, n := range c.Nodes {
		if !n.Up() {
			continue
		}
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

func TestElectLowestLive(t *testing.T) {
	c := testCluster(t, 5)
	if del, ok := c.Delegate(); !ok || del != 0 {
		t.Fatalf("delegate = %d/%v, want 0", del, ok)
	}
	c.Node(0).Crash()
	if del, ok := c.Delegate(); !ok || del != 1 {
		t.Fatalf("delegate after crash = %d/%v, want 1", del, ok)
	}
	for _, n := range c.Nodes {
		n.Crash()
	}
	if _, ok := c.Delegate(); ok {
		t.Fatal("delegate elected on a dead cluster")
	}
}

func TestStepConvergesMaps(t *testing.T) {
	c := testCluster(t, 5)
	speeds := paperSpeeds()
	for round := 0; round < 30; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatalf("round %d: nodes diverged", round)
		}
	}
	// The shared map must have adapted: the fastest server's region
	// should exceed the slowest's on every node.
	for _, n := range c.Nodes {
		m := n.Map()
		if m.Length(4) <= m.Length(0) {
			t.Fatalf("node %d: map did not adapt (len4=%d len0=%d)", n.ID(), m.Length(4), m.Length(0))
		}
	}
}

func TestDelegateStatelessSuccession(t *testing.T) {
	// Kill the delegate mid-run: the next-lowest node must take over
	// and the cluster must keep converging, with the dead node's
	// region released (paper: failure handling via missing reports).
	c := testCluster(t, 5)
	speeds := paperSpeeds()
	for round := 0; round < 10; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Node(0).Crash()
	for round := 0; round < 10; round++ {
		observeHeterogeneous(c, speeds)
		del, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if del != 1 {
			t.Fatalf("delegate = %d after node 0 crashed, want 1", del)
		}
	}
	if !c.Converged() {
		t.Fatal("cluster diverged after delegate succession")
	}
	for _, n := range c.Nodes {
		if !n.Up() {
			continue
		}
		if l := n.Map().Length(0); l != 0 {
			t.Fatalf("node %d still maps the crashed node with %d ticks", n.ID(), l)
		}
	}
}

func TestCrashedNodeDetectedBySilence(t *testing.T) {
	c := testCluster(t, 3)
	speeds := map[NodeID]float64{0: 2, 1: 2, 2: 2}
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	c.Node(2).Crash()
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if l := c.Node(0).Map().Length(2); l != 0 {
		t.Fatalf("silent node keeps %d ticks", l)
	}
}

func TestRestartRejoinsFromSnapshot(t *testing.T) {
	c := testCluster(t, 4)
	speeds := map[NodeID]float64{0: 1, 1: 2, 2: 4, 3: 8}
	for round := 0; round < 5; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Node(3).Crash()
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Restart from a live peer's snapshot.
	snap := c.Node(0).Map().Encode()
	if err := c.Node(3).Restart(snap); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("restarted node did not converge from snapshot")
	}
	// The next round's delegate sees node 3 up again at zero share and
	// re-admits it with an equal share (placement.TuneRound's Recover):
	// it holds at least half of one after every step, rather than
	// regrowing from the controller's floor, and the cluster stays
	// converged.
	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if !c.Converged() {
			t.Fatal("cluster diverged after rejoin")
		}
		if l := c.Node(0).Map().Length(3); l < anu.Half/8 {
			t.Fatalf("round %d after restart: node 3 holds %d ticks, want at least half an equal share (%d)", round+1, l, anu.Half/8)
		}
	}
}

func TestMessageLossToleratedEventually(t *testing.T) {
	c := testCluster(t, 5)
	c.Transport().SetLoss(0.3, 7)
	speeds := paperSpeeds()
	for round := 0; round < 40; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// With 30% loss some map updates are missed, but the protocol is
	// self-healing: run a few lossless rounds and everyone converges.
	c.Transport().SetLoss(0, 7)
	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Converged() {
		t.Fatal("cluster did not re-converge after loss stopped")
	}
	sent, dropped := c.Transport().Stats()
	if dropped == 0 || dropped >= sent {
		t.Fatalf("loss injection implausible: %d/%d dropped", dropped, sent)
	}
}

func TestLostReportDoesNotKillServerPermanently(t *testing.T) {
	// A lost report leaves an up server idle for that round, never
	// failed: the delegate fails only members that are down. Once
	// reports flow again the server must still hold its region.
	c := testCluster(t, 3)
	speeds := map[NodeID]float64{0: 3, 1: 3, 2: 3}
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Drop everything for one round: nodes 1 and 2 go unheard.
	c.Transport().SetLoss(0.999999, 3)
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	c.Transport().SetLoss(0, 3)
	// They were tuned as idle, not failed. What must hold: the cluster
	// still steps and converges, and neither lost its region.
	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Converged() {
		t.Fatal("cluster diverged after transient blackout")
	}
	for _, id := range []NodeID{1, 2} {
		if l := c.Node(0).Map().Length(id); l < anu.Half/6 {
			t.Errorf("node %d holds %d ticks after a lost report, want at least half an equal share (%d)", id, l, anu.Half/6)
		}
	}
}

// TestRescaleLeavesDistributionToCaller pins Rescale's contract: it
// tunes and stamps the fence, returning the delegate's new placement
// for the caller to distribute. (That it sends nothing is the type's
// doing: a Node holds no transport.)
func TestRescaleLeavesDistributionToCaller(t *testing.T) {
	c := testCluster(t, 3)
	observeHeterogeneous(c, paperSpeeds())
	del := c.Node(0)
	snapshot, err := del.Rescale(1, 1, c.Members())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot, del.Placement().Encode()) {
		t.Error("Rescale returned bytes other than the delegate's new placement")
	}
	if del.MapEpoch() != 1 || del.MapRound() != 1 {
		t.Errorf("fence (%d,%d) after Rescale, want (1,1)", del.MapEpoch(), del.MapRound())
	}
	del.Crash()
	if _, err := del.Rescale(1, 2, c.Members()); err == nil {
		t.Error("a crashed node rescaled")
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
	opts := placement.Options{Controller: anu.DefaultControllerConfig()}
	if _, err := NewNode(0, []byte("garbage"), opts); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	c := testCluster(t, 2)
	snap := c.Node(0).Map().Encode()
	if _, err := NewNode(99, snap, opts); err == nil {
		t.Fatal("non-member node accepted")
	}
}

func TestCorruptMapMessageIgnored(t *testing.T) {
	c := testCluster(t, 2)
	before := c.Node(1).Fingerprint()
	if _, err := c.Node(1).Receive(Message{
		Kind:    MsgMap,
		From:    0,
		To:      1,
		Round:   1,
		Payload: []byte("corrupted payload"),
	}, 1); err != nil {
		t.Fatal(err)
	}
	if c.Node(1).Fingerprint() != before {
		t.Fatal("corrupt map installed")
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewCluster(0, 1, anu.DefaultControllerConfig()); err == nil {
		t.Fatal("empty cluster accepted")
	}
	c := testCluster(t, 2)
	c.Node(0).Crash()
	c.Node(1).Crash()
	if _, err := c.Step(); err == nil {
		t.Fatal("step succeeded with no live nodes")
	}
}

func TestSharedStateIsSnapshotSized(t *testing.T) {
	// The protocol's map message payload is exactly the O(k) snapshot —
	// the paper's shared-state claim at the protocol level.
	c := testCluster(t, 5)
	observeHeterogeneous(c, paperSpeeds())
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	snapLen := len(c.Node(0).Map().Encode())
	if snapLen == 0 || snapLen > 4096 {
		t.Fatalf("snapshot size %d implausible for k=5", snapLen)
	}
}

// TestMalformedReportRejectsOnlyItself is the regression test for the
// batch drain: a malformed report queued ahead of the round's map in
// one delivery is rejected alone, and the map behind it still installs.
func TestMalformedReportRejectsOnlyItself(t *testing.T) {
	c := testCluster(t, 3)
	observeHeterogeneous(c, paperSpeeds())
	c.Transport().Send(Message{Kind: MsgReport, From: 2, To: 1, Epoch: 1, Round: c.Round() + 1, Payload: []byte{1, 2, 3}})
	_, err := c.Step()
	if err == nil || !strings.Contains(err.Error(), "report payload is 3 bytes") {
		t.Fatalf("Step returned %v, want the malformed report's rejection", err)
	}
	if n := c.Node(1); n.MapRound() != c.Round() {
		t.Fatalf("node 1 map round %d behind a malformed report, want %d", n.MapRound(), c.Round())
	}
	if !c.Converged() {
		t.Fatal("cluster diverged over a malformed report")
	}
}

// TestReportsBoundedByMembership: reports from senders outside the
// placement are dropped, so the pending set never outgrows the members
// however many ids a peer sprays.
func TestReportsBoundedByMembership(t *testing.T) {
	c := testCluster(t, 3)
	n := c.Node(0)
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
	c := testCluster(t, 3)
	n := c.Node(0)
	if _, err := n.Rescale(1, 1, c.Members()); err != nil {
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
	c := testCluster(t, 2)
	staleSnapshot := c.Node(1).Map().Encode() // the bootstrap placement
	speeds := map[NodeID]float64{0: 1, 1: 9}
	for round := 0; round < 5; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Node(1)
	if n.MapRound() != c.Round() {
		t.Fatalf("map round %d, want %d", n.MapRound(), c.Round())
	}
	before := n.Fingerprint()
	// A delayed duplicate of the round-1 broadcast arrives now.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: c.Epoch(), Round: 1, Payload: staleSnapshot}, c.Round())
	if err != nil {
		t.Fatal(err)
	}
	if applied || n.Fingerprint() != before {
		t.Fatal("stale-round map was installed over a newer placement")
	}
	if got := n.InstallStats().StaleMapsRejected; got != 1 {
		t.Fatalf("StaleMapsRejected = %d, want 1", got)
	}
	if n.MapRound() != c.Round() {
		t.Fatalf("map round moved backwards to %d", n.MapRound())
	}
	// A newer round still installs.
	next := c.Round() + 10
	applied, err = n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: c.Epoch(), Round: next, Payload: c.Node(0).Map().Encode()}, c.Round())
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
	c := testCluster(t, 2)
	oldSnapshot := c.Node(1).Map().Encode()
	speeds := map[NodeID]float64{0: 1, 1: 9}
	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Node(1)
	epoch, round := n.MapEpoch(), n.MapRound()
	if epoch == 0 {
		t.Fatal("harness never assigned an epoch")
	}
	before := n.Fingerprint()
	// A delegate from a superseded epoch wakes up with a round counter
	// that raced far ahead while it was partitioned.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch - 1, Round: round + 1000, Payload: oldSnapshot}, c.Round())
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
	applied, err = n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch + 1, Round: 1, Payload: c.Node(0).Map().Encode()}, c.Round())
	if err != nil {
		t.Fatal(err)
	}
	if !applied || n.MapEpoch() != epoch+1 || n.MapRound() != 1 {
		t.Fatalf("higher-epoch map not installed (applied=%v fence=(%d,%d))", applied, n.MapEpoch(), n.MapRound())
	}
}

// TestResumeRestoresFence verifies durable-restart semantics: after
// Restart with a journal-recovered snapshot, Resume re-arms the install
// fence so replayed older maps are still rejected.
func TestResumeRestoresFence(t *testing.T) {
	c := testCluster(t, 2)
	oldSnapshot := c.Node(1).Map().Encode()
	speeds := map[NodeID]float64{0: 1, 1: 9}
	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Node(1)
	epoch, round := n.MapEpoch(), n.MapRound()
	recovered := n.Map().Encode()
	n.Crash()
	if err := n.Restart(recovered); err != nil {
		t.Fatal(err)
	}
	n.Resume(epoch, round)
	if n.MapEpoch() != epoch || n.MapRound() != round {
		t.Fatalf("Resume fence = (%d, %d), want (%d, %d)", n.MapEpoch(), n.MapRound(), epoch, round)
	}
	// The pre-crash bootstrap map replayed at a lower (epoch, round)
	// must not install after the durable restart.
	applied, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: epoch - 1, Round: round + 50, Payload: oldSnapshot}, c.Round())
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

// TestObserveClampsExtremeLatency is the regression test for the
// overflow clamp: +Inf and astronomically large latencies must
// saturate at MaxLatencyMicros instead of hitting the
// platform-dependent out-of-range float64→uint64 conversion.
func TestObserveClampsExtremeLatency(t *testing.T) {
	c := testCluster(t, 2)
	n := c.Node(0)
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

// TestRestartClearsPreCrashReport is the regression test for stale
// report replay: a freshly restarted node must not re-send load data
// measured before the crash.
func TestRestartClearsPreCrashReport(t *testing.T) {
	c := testCluster(t, 3)
	n := c.Node(2)
	n.Observe(5000, 1.25)
	n.Crash()
	if err := n.Restart(c.Node(0).Map().Encode()); err != nil {
		t.Fatal(err)
	}
	if n.last != (Report{}) {
		t.Fatalf("restarted node still holds pre-crash report %+v", n.last)
	}
	// The first post-restart report on the wire is the zero report, not
	// the pre-crash measurement.
	msg, ok := n.Report(0, 1, 9)
	if !ok {
		t.Fatal("restarted node built no report")
	}
	rep, err := decodeReport(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (Report{}) {
		t.Fatalf("restarted node replayed stale report %+v", rep)
	}
}

// TestChaosTransportConvergence runs the protocol over seeded drop,
// duplicate and delay chaos and asserts the protocol invariants: the
// installed map round never moves backwards on any node, and once the
// chaos stops, every node reaches a byte-identical fingerprint within
// a bounded number of rounds.
func TestChaosTransportConvergence(t *testing.T) {
	c := testCluster(t, 5)
	c.Transport().SetChaos(0.2, 0.3, 0.3, 11)
	speeds := paperSpeeds()
	prevRounds := make(map[NodeID]uint64)
	for round := 0; round < 40; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		for _, n := range c.Nodes {
			if mr := n.MapRound(); mr < prevRounds[n.ID()] {
				t.Fatalf("round %d: node %d map round regressed %d -> %d",
					round, n.ID(), prevRounds[n.ID()], mr)
			} else {
				prevRounds[n.ID()] = mr
			}
		}
	}
	var stale uint64
	for _, n := range c.Nodes {
		stale += n.InstallStats().StaleMapsRejected
	}
	if stale == 0 {
		t.Fatal("chaos produced no stale-map deliveries; the guard went unexercised")
	}
	// Chaos off: the self-healing protocol converges within a bounded
	// number of clean rounds (two flush the delay queues, then every
	// broadcast reaches everyone).
	c.Transport().SetChaos(0, 0, 0, 11)
	const bound = 5
	for round := 0; round < bound; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Converged() {
		t.Fatalf("nodes did not converge within %d clean rounds", bound)
	}
	_, _, duplicated, delayed := c.Transport().ChaosStats()
	if duplicated == 0 || delayed == 0 {
		t.Fatalf("chaos implausible: duplicated=%d delayed=%d", duplicated, delayed)
	}
}

// TestProtocolChaosProperty drives random crash/restart/loss schedules
// and asserts the protocol-level invariants: Step never errors while a
// node lives, live nodes converge to byte-identical maps once the
// transport is clean, and the delegate is always the lowest live id.
func TestProtocolChaosProperty(t *testing.T) {
	prop := func(seed uint64, opsRaw uint8) bool {
		c, err := NewCluster(5, seed, anu.DefaultControllerConfig())
		if err != nil {
			return false
		}
		src := rngNew(seed)
		speeds := paperSpeeds()
		ops := int(opsRaw%40) + 5
		for i := 0; i < ops; i++ {
			switch src.Intn(5) {
			case 0: // crash a random node (keep at least one alive)
				live := 0
				for _, n := range c.Nodes {
					if n.Up() {
						live++
					}
				}
				if live > 1 {
					c.Nodes[src.Intn(5)].Crash()
				}
			case 1: // restart a crashed node from a live snapshot
				var donor *Node
				for _, n := range c.Nodes {
					if n.Up() {
						donor = n
						break
					}
				}
				victim := c.Nodes[src.Intn(5)]
				if donor != nil && !victim.Up() {
					if err := victim.Restart(donor.Map().Encode()); err != nil {
						t.Logf("restart: %v", err)
						return false
					}
				}
			case 2: // toggle loss
				c.Transport().SetLoss(src.Float64()*0.5, seed+uint64(i))
			default: // a normal tuning step
				observeHeterogeneous(c, speeds)
				del, err := c.Step()
				if err != nil {
					t.Logf("step: %v", err)
					return false
				}
				want, _ := Elect(c.Nodes)
				if del != want {
					t.Logf("delegate %d, elected %d", del, want)
					return false
				}
			}
		}
		// Clean transport, a few quiet rounds: everyone converges.
		c.Transport().SetLoss(0, 1)
		for i := 0; i < 3; i++ {
			observeHeterogeneous(c, speeds)
			if _, err := c.Step(); err != nil {
				t.Logf("final step: %v", err)
				return false
			}
		}
		if !c.Converged() {
			t.Log("did not converge after clean rounds")
			return false
		}
		// Every live node's map still satisfies the geometry invariants.
		for _, n := range c.Nodes {
			if n.Up() {
				if err := n.Map().CheckInvariants(); err != nil {
					t.Logf("node %d invariants: %v", n.ID(), err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
