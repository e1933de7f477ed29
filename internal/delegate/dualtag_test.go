package delegate

import (
	"testing"

	"anurand/internal/placement"
)

// targetSnapshot builds a chord-bounded placement over the nodes — the
// warm snapshot a live migration would install.
func targetSnapshot(t *testing.T, nodes []*Node) []byte {
	t.Helper()
	ids := make([]placement.ServerID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	s, err := placement.New(placement.StrategyChordBounded, ids, placement.Options{HashSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s.Encode()
}

// receiveMap hands n a map message from node 0 at fence (epoch, round).
func receiveMap(n *Node, epoch, round uint64, payload []byte) (bool, error) {
	return n.Receive(Message{Kind: MsgMap, From: 0, To: n.ID(), Epoch: epoch, Round: round, Payload: payload}, round)
}

// TestDualTagWindowInstallsTarget: with the window open, a superseding
// map carrying the target tag installs, switches the node's strategy,
// and closes the window.
func TestDualTagWindowInstallsTarget(t *testing.T) {
	nodes := testNodes(t, 3)
	n := nodes[1]
	snap := targetSnapshot(t, nodes)

	// Without a window the foreign tag is rejected.
	if _, err := receiveMap(n, 1, 1, snap); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyANU || n.InstallStats().TagMismatchesRejected != 1 {
		t.Fatalf("foreign tag installed without a window: strategy=%s mismatches=%d",
			n.Strategy(), n.InstallStats().TagMismatchesRejected)
	}

	n.OpenDualTag(placement.StrategyChordBounded)
	if n.DualTagTarget() != placement.StrategyChordBounded {
		t.Fatalf("DualTagTarget = %q", n.DualTagTarget())
	}
	// Same-tag installs still work inside the window (the old strategy
	// keeps tuning while the migration is in flight) — a fresh ANU
	// snapshot from a peer installs fine.
	if applied, err := receiveMap(n, 1, 2, nodes[0].Placement().Encode()); err != nil || !applied {
		t.Fatalf("same-tag install inside window: applied=%v err=%v", applied, err)
	}
	if n.Strategy() != placement.StrategyANU {
		t.Fatalf("same-tag install switched strategy to %s", n.Strategy())
	}

	// The cutover: target-tag install at a superseding fence.
	if applied, err := receiveMap(n, 2, 3, snap); err != nil || !applied {
		t.Fatalf("cutover install: applied=%v err=%v", applied, err)
	}
	if n.Strategy() != placement.StrategyChordBounded {
		t.Fatalf("strategy after cutover = %s", n.Strategy())
	}
	if n.DualTagTarget() != "" {
		t.Fatal("window still open after cutover")
	}
	if got := n.InstallStats().DualTagInstalls; got != 1 {
		t.Fatalf("DualTagInstalls = %d", got)
	}
	if n.MapEpoch() != 2 || n.MapRound() != 3 {
		t.Fatalf("fence after cutover = (%d, %d)", n.MapEpoch(), n.MapRound())
	}
}

// TestDualTagWindowStillFencesStaleAndCross: the window relaxes only
// the tag check, never the fence; and tags other than the named target
// stay poison.
func TestDualTagWindowStillFencesStaleAndCross(t *testing.T) {
	nodes := testNodes(t, 3)
	n := nodes[1]
	snap := targetSnapshot(t, nodes)

	// Advance the node's fence first.
	if _, err := receiveMap(n, 3, 5, nodes[0].Placement().Encode()); err != nil {
		t.Fatal(err)
	}

	n.OpenDualTag(placement.StrategyChordBounded)
	// Stale fence with the target tag: still rejected, window stays open.
	if _, err := receiveMap(n, 2, 9, snap); err != nil {
		t.Fatal(err)
	}
	// Cross tag (neither anu nor chord-bounded) at a fresh fence.
	ids := []placement.ServerID{0, 1, 2}
	chord, err := placement.New(placement.StrategyChord, ids, placement.Options{HashSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receiveMap(n, 3, 6, chord.Encode()); err != nil {
		t.Fatal(err)
	}
	// Undecodable garbage at a fresh fence.
	if _, err := receiveMap(n, 3, 7, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyANU {
		t.Fatalf("strategy = %s, want anu", n.Strategy())
	}
	st := n.InstallStats()
	if st.StaleEpochsRejected != 1 {
		t.Fatalf("StaleEpochsRejected = %d", st.StaleEpochsRejected)
	}
	if st.CrossTagInstallsRejected != 1 {
		t.Fatalf("CrossTagInstallsRejected = %d", st.CrossTagInstallsRejected)
	}
	if st.UndecodableMapsRejected != 1 {
		t.Fatalf("UndecodableMapsRejected = %d", st.UndecodableMapsRejected)
	}
	if n.DualTagTarget() == "" {
		t.Fatal("window closed by rejected installs")
	}

	// Rollback: CloseDualTag leaves the serving strategy untouched and
	// the target tag becomes poison again.
	n.CloseDualTag()
	if _, err := receiveMap(n, 4, 8, snap); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyANU || n.InstallStats().TagMismatchesRejected != 1 {
		t.Fatalf("post-rollback: strategy=%s mismatches=%d", n.Strategy(), n.InstallStats().TagMismatchesRejected)
	}
}

// TestDualTagWindowLifecycle: self-target is a no-op, re-open replaces.
func TestDualTagWindowLifecycle(t *testing.T) {
	n := testNodes(t, 2)[1]
	n.OpenDualTag(placement.StrategyANU) // own strategy: nothing to migrate to
	if n.DualTagTarget() != "" {
		t.Fatal("self-target opened a window")
	}
	n.OpenDualTag(placement.StrategyChord)
	n.OpenDualTag(placement.StrategyChordBounded)
	if n.DualTagTarget() != placement.StrategyChordBounded {
		t.Fatalf("re-open did not replace target: %q", n.DualTagTarget())
	}
}
