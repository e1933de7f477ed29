package delegate

import (
	"bytes"
	"testing"

	"anurand/internal/placement"
)

// checkCache asserts that n's cached encoding and fingerprint describe
// the placement it holds.
func checkCache(t *testing.T, step string, n *Node) {
	t.Helper()
	enc := n.Placement().Encode()
	if !bytes.Equal(n.Encoded(), enc) {
		t.Fatalf("%s: node %d cached bytes differ from Encode()", step, n.ID())
	}
	if got, want := n.Fingerprint(), SnapshotFingerprint(enc); got != want {
		t.Fatalf("%s: node %d Fingerprint %#x, want FNV(Encode()) %#x", step, n.ID(), got, want)
	}
}

func checkAll(t *testing.T, step string, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		checkCache(t, step, n)
	}
}

func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestInstalledBytesCache walks a node through every way its placement
// changes — construction, install, rescale, restart from a snapshot,
// dual-tag cutover — and checks the cached bytes and fingerprint after
// each against a fresh encoding.
func TestInstalledBytesCache(t *testing.T) {
	nodes := testNodes(t, 4)
	speeds := map[NodeID]float64{0: 1, 1: 2, 2: 4, 3: 8}
	checkAll(t, "construction", nodes)

	for round := uint64(1); round <= 3; round++ {
		observeHeterogeneous(nodes, speeds)
		step(t, nodes, round)
		checkAll(t, "install", nodes)
	}
	// A follower keeps the delegate's payload instead of re-encoding it.
	if !sameBacking(nodes[1].Encoded(), nodes[0].Encoded()) {
		t.Fatal("follower re-encoded the installed payload instead of keeping it")
	}

	snap, err := nodes[0].Rescale(1, 4, allUp(nodes))
	if err != nil {
		t.Fatal(err)
	}
	checkCache(t, "rescale", nodes[0])
	if !sameBacking(snap, nodes[0].Encoded()) {
		t.Fatal("Rescale returned bytes other than its cached encoding")
	}

	// A round that fails leaves the cache describing the placement: ANU
	// refuses to commission the up member -1.
	bad := append(allUp(nodes), placement.Member{ID: -1, Up: true})
	if _, err := nodes[0].Rescale(1, 4, bad); err == nil {
		t.Fatal("Rescale commissioning member -1 succeeded")
	}
	checkCache(t, "failed rescale", nodes[0])

	// A restart builds a fresh node from a peer's snapshot, which NewNode
	// copies: the caller may reuse its buffer.
	for _, id := range []NodeID{2, 3} {
		buf := append([]byte(nil), nodes[0].Encoded()...)
		if nodes[id], err = NewNode(id, buf, nodeOpts); err != nil {
			t.Fatal(err)
		}
		nodes[id].Resume(nodes[0].MapEpoch(), nodes[0].MapRound())
		for i := range buf {
			buf[i] = 0
		}
		checkCache(t, "restart", nodes[id])
	}
	observeHeterogeneous(nodes, speeds)
	step(t, nodes, 5)
	checkAll(t, "install after restart", nodes)
	if !converged(nodes) {
		t.Fatal("restarted node holds a different fingerprint")
	}

	n := nodes[1]
	n.OpenDualTag(placement.StrategyChordBounded)
	if applied, err := receiveMap(n, 2, 6, targetSnapshot(t, nodes)); err != nil || !applied {
		t.Fatalf("cutover: applied=%v err=%v", applied, err)
	}
	if n.Strategy() != placement.StrategyChordBounded {
		t.Fatalf("cutover left strategy %s", n.Strategy())
	}
	checkCache(t, "dual-tag cutover", n)
	if _, err := n.Rescale(2, 7, allUp(nodes)); err != nil {
		t.Fatal(err)
	}
	checkCache(t, "rescale after cutover", n)
}
