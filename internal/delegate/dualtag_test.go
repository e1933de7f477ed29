package delegate

import (
	"testing"

	"anurand/internal/placement"
)

// targetSnapshot builds a chord-bounded placement over the nodes — the
// placement a live migration's first map serves.
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

// windowSnapshot is targetSnapshot inside a migration window from anu
// opened at round opened: the map that starts a migration.
func windowSnapshot(t *testing.T, nodes []*Node, opened uint64) []byte {
	t.Helper()
	return placement.EncodeWindow(placement.Window{From: placement.StrategyANU, Opened: opened}, targetSnapshot(t, nodes))
}

// receiveMap hands n a map message from node 0 at fence (epoch, round).
func receiveMap(n *Node, epoch, round uint64, payload []byte) (bool, error) {
	return n.Receive(Message{Kind: MsgMap, From: 0, To: n.ID(), Epoch: epoch, Round: round, Payload: payload}, round)
}

// TestDualTagWindowInstallsTarget: a node on anu refuses a plain
// chord-bounded map, installs the chord-bounded map inside a window
// from anu (and serves chord-bounded from then on), and, holding the
// window, installs the plain chord-bounded map that closes it.
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

	// The cutover: the window map installs and switches the strategy.
	if applied, err := receiveMap(n, 1, 2, windowSnapshot(t, nodes, 2)); err != nil || !applied {
		t.Fatalf("window install: applied=%v err=%v", applied, err)
	}
	want := placement.Window{From: placement.StrategyANU, Opened: 2}
	if n.Strategy() != placement.StrategyChordBounded || n.Window() != want {
		t.Fatalf("after the window map: strategy %s, window %+v, want %s inside %+v",
			n.Strategy(), n.Window(), placement.StrategyChordBounded, want)
	}
	// Maps of the window's later rounds keep installing.
	if applied, err := receiveMap(n, 1, 3, windowSnapshot(t, nodes, 2)); err != nil || !applied {
		t.Fatalf("window map of a later round: applied=%v err=%v", applied, err)
	}

	// The plain target map closes the window.
	if applied, err := receiveMap(n, 2, 4, snap); err != nil || !applied {
		t.Fatalf("closing install: applied=%v err=%v", applied, err)
	}
	if n.Strategy() != placement.StrategyChordBounded || n.Window().IsOpen() {
		t.Fatalf("after the closing map: strategy %s, window %+v", n.Strategy(), n.Window())
	}
	if n.MapEpoch() != 2 || n.MapRound() != 4 {
		t.Fatalf("fence after cutover = (%d, %d)", n.MapEpoch(), n.MapRound())
	}
	if got := n.InstallStats().TagMismatchesRejected; got != 1 {
		t.Fatalf("TagMismatchesRejected = %d, want 1", got)
	}
}

// TestDualTagWindowStillFencesStaleAndCross: a window widens only the
// tag check, never the fence; and maps whose tags meet none of the
// node's stay poison, inside the window and after it.
func TestDualTagWindowStillFencesStaleAndCross(t *testing.T) {
	nodes := testNodes(t, 3)
	n := nodes[1]

	// Advance the node's fence first.
	if _, err := receiveMap(n, 3, 5, nodes[0].Placement().Encode()); err != nil {
		t.Fatal(err)
	}
	// A stale fence with the window map: rejected, the node stays on anu.
	if _, err := receiveMap(n, 2, 9, windowSnapshot(t, nodes, 9)); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyANU || n.Window().IsOpen() {
		t.Fatalf("stale window map installed: strategy %s, window %+v", n.Strategy(), n.Window())
	}
	if applied, err := receiveMap(n, 3, 6, windowSnapshot(t, nodes, 6)); err != nil || !applied {
		t.Fatalf("window install: applied=%v err=%v", applied, err)
	}

	// Cross tags at fresh fences: plain chord (neither chord-bounded nor
	// anu), and chord inside a window from rendezvous.
	ids := []placement.ServerID{0, 1, 2}
	chord, err := placement.New(placement.StrategyChord, ids, placement.Options{HashSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := receiveMap(n, 3, 7, chord.Encode()); err != nil {
		t.Fatal(err)
	}
	foreign := placement.EncodeWindow(placement.Window{From: placement.StrategyRendezvous, Opened: 8}, chord.Encode())
	if _, err := receiveMap(n, 3, 8, foreign); err != nil {
		t.Fatal(err)
	}
	// Undecodable garbage at a fresh fence.
	if _, err := receiveMap(n, 3, 9, []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyChordBounded || !n.Window().IsOpen() {
		t.Fatalf("rejected maps moved the node: strategy %s, window %+v", n.Strategy(), n.Window())
	}
	st := n.InstallStats()
	if st.StaleEpochsRejected != 1 || st.TagMismatchesRejected != 2 || st.UndecodableMapsRejected != 1 {
		t.Fatalf("rejections stale-epoch=%d tag=%d undecodable=%d, want 1/2/1",
			st.StaleEpochsRejected, st.TagMismatchesRejected, st.UndecodableMapsRejected)
	}

	// Once the plain target map closes the window, anu is poison again.
	if applied, err := receiveMap(n, 4, 10, targetSnapshot(t, nodes)); err != nil || !applied {
		t.Fatalf("closing install: applied=%v err=%v", applied, err)
	}
	if _, err := receiveMap(n, 4, 11, nodes[0].Placement().Encode()); err != nil {
		t.Fatal(err)
	}
	if n.Strategy() != placement.StrategyChordBounded || n.InstallStats().TagMismatchesRejected != 3 {
		t.Fatalf("after the window: strategy=%s mismatches=%d", n.Strategy(), n.InstallStats().TagMismatchesRejected)
	}
}

// TestDualTagWindowLifecycle: Rescale with a target opens a window from
// the node's strategy at that round, keeps it for window rounds and then
// sends the plain map; a follower that installed a window map and is
// elected continues the window from its installed map alone and closes
// it at the same round; a target naming the node's own strategy is an
// ordinary tune.
func TestDualTagWindowLifecycle(t *testing.T) {
	const w = 3
	nodes := testNodes(t, 3)
	del, follower := nodes[0], nodes[1]
	if _, err := del.Rescale(1, 1, allUp(nodes), placement.StrategyANU, w); err != nil || del.Window().IsOpen() {
		t.Fatalf("self-target: window %+v, err %v", del.Window(), err)
	}
	snap, err := del.Rescale(1, 2, allUp(nodes), placement.StrategyChordBounded, w)
	if err != nil {
		t.Fatal(err)
	}
	want := placement.Window{From: placement.StrategyANU, Opened: 2}
	if del.Strategy() != placement.StrategyChordBounded || del.Window() != want {
		t.Fatalf("opening round: strategy %s, window %+v, want %+v", del.Strategy(), del.Window(), want)
	}
	if applied, err := receiveMap(follower, 1, 2, snap); err != nil || !applied {
		t.Fatalf("follower install: applied=%v err=%v", applied, err)
	}
	for _, n := range []*Node{del, follower} {
		for round := uint64(3); round < 2+w; round++ {
			if _, err := n.Rescale(2, round, allUp(nodes), "", w); err != nil {
				t.Fatal(err)
			}
			if n.Window() != want {
				t.Fatalf("node %d round %d: window %+v, want %+v", n.ID(), round, n.Window(), want)
			}
		}
		if _, err := n.Rescale(2, 2+w, allUp(nodes), "", w); err != nil {
			t.Fatal(err)
		}
		if n.Window().IsOpen() || n.Strategy() != placement.StrategyChordBounded {
			t.Fatalf("node %d at round %d: strategy %s, window %+v, want plain chord-bounded",
				n.ID(), 2+w, n.Strategy(), n.Window())
		}
	}
}
