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

func checkAll(t *testing.T, step string, c *Cluster) {
	t.Helper()
	for _, n := range c.Nodes {
		checkCache(t, step, n)
	}
}

func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestInstalledBytesCache walks a node through every way its placement
// changes — construction, install, rescale, restart, crash and restart,
// dual-tag cutover — and checks the cached bytes and fingerprint after
// each against a fresh encoding.
func TestInstalledBytesCache(t *testing.T) {
	c := testCluster(t, 4)
	speeds := map[NodeID]float64{0: 1, 1: 2, 2: 4, 3: 8}
	checkAll(t, "construction", c)

	for round := 0; round < 3; round++ {
		observeHeterogeneous(c, speeds)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
		checkAll(t, "install", c)
	}
	// A follower keeps the delegate's payload instead of re-encoding it.
	if !sameBacking(c.Node(1).Encoded(), c.Node(0).Encoded()) {
		t.Fatal("follower re-encoded the installed payload instead of keeping it")
	}

	snap, err := c.Node(0).Rescale(c.Epoch(), c.Round()+1, c.Members())
	if err != nil {
		t.Fatal(err)
	}
	checkCache(t, "rescale", c.Node(0))
	if !sameBacking(snap, c.Node(0).Encoded()) {
		t.Fatal("Rescale returned bytes other than its cached encoding")
	}

	// A round that fails leaves the cache describing the placement: ANU
	// refuses to commission the up member -1.
	bad := append(c.Members(), placement.Member{ID: -1, Up: true})
	if _, err := c.Node(0).Rescale(c.Epoch(), c.Round()+1, bad); err == nil {
		t.Fatal("Rescale commissioning member -1 succeeded")
	}
	checkCache(t, "failed rescale", c.Node(0))

	// Restart copies the snapshot: the caller may reuse its buffer.
	buf := append([]byte(nil), c.Node(0).Encoded()...)
	if err := c.Node(2).Restart(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0
	}
	checkCache(t, "restart", c.Node(2))

	c.Node(3).Crash()
	checkCache(t, "crash", c.Node(3))
	observeHeterogeneous(c, speeds)
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(3).Restart(c.Node(0).Map().Encode()); err != nil {
		t.Fatal(err)
	}
	checkAll(t, "crash/restart", c)
	if !c.Converged() {
		t.Fatal("restarted node holds a different fingerprint")
	}

	n := c.Node(1)
	n.OpenDualTag(placement.StrategyChordBounded)
	if applied, err := receiveMap(n, c.Epoch()+1, c.Round()+1, targetSnapshot(t, c)); err != nil || !applied {
		t.Fatalf("cutover: applied=%v err=%v", applied, err)
	}
	if n.Strategy() != placement.StrategyChordBounded {
		t.Fatalf("cutover left strategy %s", n.Strategy())
	}
	checkCache(t, "dual-tag cutover", n)
	if _, err := n.Rescale(c.Epoch()+1, c.Round()+2, c.Members()); err != nil {
		t.Fatal(err)
	}
	checkCache(t, "rescale after cutover", n)
}
