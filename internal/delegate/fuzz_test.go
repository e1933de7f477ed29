package delegate

import (
	"bytes"
	"testing"

	"anurand/internal/placement"
)

// FuzzNodeReceive feeds arbitrary messages to a node's handler: each
// input is received from eight consecutive sender ids, as a peer
// spraying reports under many names would send it, by a node whose
// fence is (1, 5) and who, when window is set, first installed a
// chord-bounded map inside a migration window from anu at that fence. Invariants on every call: Receive never
// panics, the installed (epoch, round) never decreases, a message that
// installs nothing leaves Encoded() and Fingerprint() unchanged, an
// install's Encoded() is the payload, and PendingReports() never
// exceeds the member count. After the eight messages the node rescales
// over members 0–2, member i up when bit i of up is set: Rescale never
// panics, an error leaves Encoded() describing the installed map, and
// otherwise a member holds a nonzero share exactly when it is up.
func FuzzNodeReceive(f *testing.F) {
	nodes := testNodes(f, 3)
	boot := nodes[0].Encoded()
	observeHeterogeneous(nodes, paperSpeeds())
	step(f, nodes, 1)
	tuned := nodes[0].Encoded()
	target, err := placement.New(placement.StrategyChordBounded, nodes[0].Placement().Servers(), placement.Options{HashSeed: 42})
	if err != nil {
		f.Fatal(err)
	}
	window := placement.EncodeWindow(placement.Window{From: placement.StrategyANU, Opened: 5}, target.Encode())
	report := encodeReport(Report{Requests: 10, LatencyMicros: 2000})
	f.Add(uint8(MsgReport), int32(0), uint64(1), uint64(5), report, false, uint8(0b111))
	f.Add(uint8(MsgReport), int32(2), uint64(1), uint64(5), []byte{1, 2, 3}, false, uint8(0b011))
	f.Add(uint8(MsgReport), int32(1), uint64(1), uint64(4), report, false, uint8(0b101))
	f.Add(uint8(MsgMap), int32(0), uint64(2), uint64(5), tuned, false, uint8(0b111))
	f.Add(uint8(MsgMap), int32(0), uint64(1), uint64(4), tuned, false, uint8(0b110))
	f.Add(uint8(MsgMap), int32(0), uint64(0), uint64(99), tuned, false, uint8(0b111))
	f.Add(uint8(MsgMap), int32(0), uint64(3), uint64(1), target.Encode(), true, uint8(0b111))
	f.Add(uint8(MsgMap), int32(0), uint64(3), uint64(1), target.Encode(), false, uint8(0b010))
	f.Add(uint8(MsgMap), int32(0), uint64(1), uint64(6), window, false, uint8(0b111))
	f.Add(uint8(MsgMap), int32(0), uint64(2), uint64(1), tuned, true, uint8(0b011))
	f.Add(uint8(MsgMap), int32(0), uint64(1), uint64(6), []byte("not a snapshot"), false, uint8(0b111))
	f.Add(uint8(0x20), int32(0), uint64(1), uint64(5), report, false, uint8(0b000))
	f.Fuzz(func(t *testing.T, kind uint8, from int32, epoch, round uint64, payload []byte, inWindow bool, up uint8) {
		n, err := NewNode(1, boot, nodeOpts)
		if err != nil {
			t.Fatal(err)
		}
		n.Resume(1, 5)
		if inWindow {
			if installed, err := n.Receive(Message{Kind: MsgMap, From: 0, To: 1, Epoch: 1, Round: 5, Payload: window}, 5); err != nil || !installed {
				t.Fatalf("window map: installed=%v err=%v", installed, err)
			}
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
		var members []placement.Member
		for id := NodeID(0); id < 3; id++ {
			members = append(members, placement.Member{ID: id, Up: up&(1<<id) != 0})
		}
		if _, err := n.Rescale(n.MapEpoch(), 6, members, "", 2); err != nil {
			enc := n.Placement().Encode()
			if w := n.Window(); w.IsOpen() {
				enc = placement.EncodeWindow(w, enc)
			}
			if !bytes.Equal(n.Encoded(), enc) {
				t.Fatalf("failed Rescale (%v) left Encoded() stale", err)
			}
			return
		}
		shares := n.Placement().Shares()
		for _, m := range members {
			if (shares[m.ID] > 0) != m.Up {
				t.Fatalf("member %d up=%v holds share %g after Rescale", m.ID, m.Up, shares[m.ID])
			}
		}
	})
}
