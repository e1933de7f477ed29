package delegate

import (
	"bytes"
	"testing"

	"anurand/internal/placement"
)

// newStrategyNode builds node 0 of a four-member placement of the given
// strategy, after failing the ids in down.
func newStrategyNode(t *testing.T, tag string, down ...NodeID) *Node {
	t.Helper()
	s, err := placement.New(tag, []NodeID{0, 1, 2, 3}, placement.Options{HashSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range down {
		if err := s.Fail(id); err != nil {
			t.Fatal(err)
		}
	}
	n, err := NewNode(0, s.Encode(), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n.Observe(100, 0.01)
	return n
}

// TestRescaleLeavesPreviousPlacement pins copy-on-write tuning: a
// placement the node handed out before a round still encodes as it did
// after the round replaced it, so the runtime may publish Placement()
// to lock-free readers without copying it.
func TestRescaleLeavesPreviousPlacement(t *testing.T) {
	for _, tag := range []string{placement.StrategyANU, placement.StrategyChordBounded} {
		t.Run(tag, func(t *testing.T) {
			n := newStrategyNode(t, tag)
			before := n.Placement()
			enc := bytes.Clone(before.Encode())
			// Member 2 is down, so the round fails it: the map must change.
			members := []placement.Member{{ID: 0, Up: true}, {ID: 1, Up: true}, {ID: 2}, {ID: 3, Up: true}}
			if _, err := n.Rescale(1, 1, members, "", 0); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(n.Encoded(), enc) {
				t.Fatal("the round left the map unchanged; the test needs one that changes it")
			}
			if !bytes.Equal(before.Encode(), enc) {
				t.Fatal("Rescale changed the placement Placement() returned before it")
			}
			checkCache(t, "rescale", n)
		})
	}
}

// TestFailedRescaleLeavesPlacement pins publish-on-success: a round
// that fails part-way, after re-admitting a failed member, leaves
// Placement(), Encoded() and Fingerprint() as they were, and the
// placement itself unchanged.
func TestFailedRescaleLeavesPlacement(t *testing.T) {
	n := newStrategyNode(t, placement.StrategyANU, 2)
	p, enc, fp := n.Placement(), bytes.Clone(n.Encoded()), n.Fingerprint()
	// Member 2 is failed in the map and up in the view, so the round
	// recovers it before ANU refuses to commission the up member -1.
	members := []placement.Member{{ID: 0, Up: true}, {ID: 1, Up: true}, {ID: 2, Up: true}, {ID: 3, Up: true}, {ID: -1, Up: true}}
	if _, err := n.Rescale(1, 1, members, "", 0); err == nil {
		t.Fatal("Rescale commissioning member -1 succeeded")
	}
	if n.Placement() != p {
		t.Error("a failed round replaced Placement()")
	}
	if !bytes.Equal(n.Encoded(), enc) {
		t.Error("a failed round changed Encoded()")
	}
	if n.Fingerprint() != fp {
		t.Error("a failed round changed Fingerprint()")
	}
	if !bytes.Equal(p.Encode(), enc) {
		t.Error("a failed round mutated the placement")
	}
	if n.MapEpoch() != 0 || n.MapRound() != 0 {
		t.Errorf("a failed round stamped the fence (%d, %d)", n.MapEpoch(), n.MapRound())
	}
}
