package delegate

import (
	"bytes"
	"testing"

	"anurand/internal/anu"
	"anurand/internal/placement"
)

// FuzzNodeReceive feeds arbitrary messages to a node's handler: each
// input is received from eight consecutive sender ids, as a peer
// spraying reports under many names would send it, by a node whose
// fence is (1, 5) and whose dual-tag window toward chord-bounded is
// open when window is set. Invariants on every call: Receive never
// panics, the installed (epoch, round) never decreases, a message that
// installs nothing leaves Encoded() and Fingerprint() unchanged, an
// install's Encoded() is the payload, and PendingReports() never
// exceeds the member count.
func FuzzNodeReceive(f *testing.F) {
	opts := placement.Options{Controller: anu.DefaultControllerConfig()}
	c, err := NewCluster(3, 42, opts.Controller)
	if err != nil {
		f.Fatal(err)
	}
	boot := c.Node(0).Encoded()
	observeHeterogeneous(c, paperSpeeds())
	if _, err := c.Step(); err != nil {
		f.Fatal(err)
	}
	tuned := c.Node(0).Encoded()
	target, err := placement.New(placement.StrategyChordBounded, c.Members(), placement.Options{HashSeed: 42})
	if err != nil {
		f.Fatal(err)
	}
	report := encodeReport(Report{Requests: 10, LatencyMicros: 2000})
	f.Add(uint8(MsgReport), int32(0), uint64(1), uint64(5), report, false)
	f.Add(uint8(MsgReport), int32(2), uint64(1), uint64(5), []byte{1, 2, 3}, false)
	f.Add(uint8(MsgReport), int32(1), uint64(1), uint64(4), report, false)
	f.Add(uint8(MsgMap), int32(0), uint64(2), uint64(5), tuned, false)
	f.Add(uint8(MsgMap), int32(0), uint64(1), uint64(4), tuned, false)
	f.Add(uint8(MsgMap), int32(0), uint64(0), uint64(99), tuned, false)
	f.Add(uint8(MsgMap), int32(0), uint64(3), uint64(1), target.Encode(), true)
	f.Add(uint8(MsgMap), int32(0), uint64(3), uint64(1), target.Encode(), false)
	f.Add(uint8(MsgMap), int32(0), uint64(1), uint64(6), []byte("not a snapshot"), false)
	f.Add(uint8(0x20), int32(0), uint64(1), uint64(5), report, false)
	f.Fuzz(func(t *testing.T, kind uint8, from int32, epoch, round uint64, payload []byte, window bool) {
		n, err := NewNode(1, boot, opts)
		if err != nil {
			t.Fatal(err)
		}
		n.Resume(1, 5)
		if window {
			n.OpenDualTag(placement.StrategyChordBounded)
		}
		for i := int32(0); i < 8; i++ {
			msg := Message{Kind: MsgKind(kind), From: NodeID(from + i), To: 1, Epoch: epoch, Round: round, Payload: payload}
			e, r := n.MapEpoch(), n.MapRound()
			enc, fp := n.Encoded(), n.Fingerprint()
			installed, err := n.Receive(msg, 5)
			if !supersedes(n.MapEpoch(), n.MapRound(), e, r) {
				t.Fatalf("fence moved back from (%d,%d) to (%d,%d)", e, r, n.MapEpoch(), n.MapRound())
			}
			if installed {
				if err != nil {
					t.Fatalf("install also returned %v", err)
				}
				if !bytes.Equal(n.Encoded(), payload) {
					t.Fatal("installed Encoded() differs from the payload")
				}
			} else if !bytes.Equal(n.Encoded(), enc) || n.Fingerprint() != fp {
				t.Fatal("a message that installed nothing changed the placement")
			}
			if got, max := n.PendingReports(), len(n.Placement().Servers()); got > max {
				t.Fatalf("%d pending reports for %d members", got, max)
			}
		}
	})
}
