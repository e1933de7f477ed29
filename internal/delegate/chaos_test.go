package delegate

import (
	"testing"
	"testing/quick"

	"anurand/internal/anu"
	"anurand/internal/placement"
	"anurand/internal/rng"
)

// lossyNet drives a set of nodes through the protocol with crashes,
// restarts and message loss, without a transport or clock: each round
// the lowest up id is delegate, every other up node's report may be
// lost on its way to it, and so may each copy of the map it sends back.
// A down node neither reports nor receives. A new delegate opens a new
// view epoch, as the cluster runtime does on succession.
type lossyNet struct {
	nodes   []*Node
	up      []bool
	src     *rng.Source
	loss    float64
	round   uint64
	epoch   uint64
	lastDel NodeID
	sent    uint64
	dropped uint64
}

func newLossyNet(t testing.TB, k int) *lossyNet {
	n := &lossyNet{nodes: testNodes(t, k), up: make([]bool, k), lastDel: -1}
	for i := range n.up {
		n.up[i] = true
	}
	n.setLoss(0, 1)
	return n
}

// setLoss drops each later message with probability p, drawn from a
// source seeded with seed.
func (n *lossyNet) setLoss(p float64, seed uint64) {
	n.loss = p
	n.src = rng.New(seed)
}

// send counts one message and reports whether it survives the loss.
func (n *lossyNet) send() bool {
	n.sent++
	if n.loss > 0 && n.src.Float64() < n.loss {
		n.dropped++
		return false
	}
	return true
}

// delegate returns the lowest up node, or -1 when every node is down.
func (n *lossyNet) delegate() NodeID {
	for i, up := range n.up {
		if up {
			return n.nodes[i].ID()
		}
	}
	return -1
}

func (n *lossyNet) members() []placement.Member {
	members := make([]placement.Member, len(n.nodes))
	for i, node := range n.nodes {
		members[i] = placement.Member{ID: node.ID(), Up: n.up[i]}
	}
	return members
}

// observe feeds every up node the closed-loop measurement of
// observeHeterogeneous.
func (n *lossyNet) observe(speeds map[NodeID]float64) {
	var live []*Node
	for i, node := range n.nodes {
		if n.up[i] {
			live = append(live, node)
		}
	}
	observeHeterogeneous(live, speeds)
}

// step runs one round and returns its delegate.
func (n *lossyNet) step(t testing.TB) NodeID {
	t.Helper()
	n.round++
	del := n.delegate()
	if del < 0 {
		t.Fatal("no live nodes")
	}
	if del != n.lastDel {
		n.epoch++
		n.lastDel = del
	}
	delNode := n.nodes[del]
	for i, node := range n.nodes {
		if n.up[i] && node.ID() != del && n.send() {
			if _, err := delNode.Receive(node.Report(del, n.epoch, n.round), n.round); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot, err := delNode.Rescale(n.epoch, n.round, n.members())
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range n.nodes {
		if node.ID() == del || !n.send() || !n.up[i] {
			continue
		}
		msg := Message{Kind: MsgMap, From: del, To: node.ID(), Epoch: n.epoch, Round: n.round, Payload: snapshot}
		if _, err := node.Receive(msg, n.round); err != nil {
			t.Fatal(err)
		}
	}
	return del
}

func (n *lossyNet) crash(id NodeID) { n.up[id] = false }

// restart brings id back as the cluster runtime does: a fresh node
// built from a live peer's snapshot, its fence resumed at the peer's.
func (n *lossyNet) restart(t testing.TB, id, donor NodeID) {
	t.Helper()
	d := n.nodes[donor]
	node, err := NewNode(id, d.Encoded(), nodeOpts)
	if err != nil {
		t.Fatal(err)
	}
	node.Resume(d.MapEpoch(), d.MapRound())
	n.nodes[id] = node
	n.up[id] = true
}

// converged reports whether every up node holds a byte-identical map.
func (n *lossyNet) converged() bool {
	var live []*Node
	for i, node := range n.nodes {
		if n.up[i] {
			live = append(live, node)
		}
	}
	return converged(live)
}

func TestCrashedNodeDetectedBySilence(t *testing.T) {
	c := newLossyNet(t, 3)
	speeds := map[NodeID]float64{0: 2, 1: 2, 2: 2}
	c.observe(speeds)
	c.step(t)
	c.crash(2)
	c.observe(speeds)
	c.step(t)
	if l := c.nodes[0].Map().Length(2); l != 0 {
		t.Fatalf("silent node keeps %d ticks", l)
	}
}

func TestRestartRejoinsFromSnapshot(t *testing.T) {
	c := newLossyNet(t, 4)
	speeds := map[NodeID]float64{0: 1, 1: 2, 2: 4, 3: 8}
	for round := 0; round < 5; round++ {
		c.observe(speeds)
		c.step(t)
	}
	c.crash(3)
	c.observe(speeds)
	c.step(t)
	// Restart from a live peer's snapshot.
	c.restart(t, 3, 0)
	if !c.converged() {
		t.Fatal("restarted node did not converge from snapshot")
	}
	// The next round's delegate sees node 3 up again at zero share and
	// re-admits it with an equal share (placement.TuneRound's Recover):
	// it holds at least half of one after every step, rather than
	// regrowing from the controller's floor, and the cluster stays
	// converged.
	for round := 0; round < 3; round++ {
		c.observe(speeds)
		c.step(t)
		if !c.converged() {
			t.Fatal("cluster diverged after rejoin")
		}
		if l := c.nodes[0].Map().Length(3); l < anu.Half/8 {
			t.Fatalf("round %d after restart: node 3 holds %d ticks, want at least half an equal share (%d)", round+1, l, anu.Half/8)
		}
	}
}

func TestMessageLossToleratedEventually(t *testing.T) {
	c := newLossyNet(t, 5)
	c.setLoss(0.3, 7)
	speeds := paperSpeeds()
	for round := 0; round < 40; round++ {
		c.observe(speeds)
		c.step(t)
	}
	// With 30% loss some map updates are missed, but the protocol is
	// self-healing: run a few lossless rounds and everyone converges.
	c.setLoss(0, 7)
	for round := 0; round < 3; round++ {
		c.observe(speeds)
		c.step(t)
	}
	if !c.converged() {
		t.Fatal("cluster did not re-converge after loss stopped")
	}
	if c.dropped == 0 || c.dropped >= c.sent {
		t.Fatalf("loss injection implausible: %d/%d dropped", c.dropped, c.sent)
	}
}

func TestProtocolChaosProperty(t *testing.T) {
	prop := func(seed uint64, opsRaw uint8) bool {
		c := newLossyNet(t, 5)
		src := rng.New(seed)
		speeds := paperSpeeds()
		ops := int(opsRaw%40) + 5
		for i := 0; i < ops; i++ {
			switch src.Intn(5) {
			case 0: // crash a random node (keep at least one alive)
				live := 0
				for _, up := range c.up {
					if up {
						live++
					}
				}
				if live > 1 {
					c.crash(NodeID(src.Intn(5)))
				}
			case 1: // restart a crashed node from a live snapshot
				victim := NodeID(src.Intn(5))
				if !c.up[victim] {
					c.restart(t, victim, c.delegate())
				}
			case 2: // change the loss rate
				c.setLoss(src.Float64()*0.5, seed+uint64(i))
			default: // a normal tuning step
				c.observe(speeds)
				want := c.delegate()
				del := c.step(t)
				if del != want {
					t.Logf("delegate %d, lowest up id %d", del, want)
					return false
				}
				// Rescale stamps the delegate's fence with the round it
				// tuned, whatever fence a restart resumed it at.
				if d := c.nodes[del]; d.MapEpoch() != c.epoch || d.MapRound() != c.round {
					t.Logf("delegate %d fence (%d,%d), want (%d,%d)", del, d.MapEpoch(), d.MapRound(), c.epoch, c.round)
					return false
				}
			}
		}
		// Clean transport, a few quiet rounds: everyone converges.
		c.setLoss(0, 1)
		for i := 0; i < 3; i++ {
			c.observe(speeds)
			c.step(t)
		}
		if !c.converged() {
			t.Log("did not converge after clean rounds")
			return false
		}
		// Every live node's map still satisfies the geometry invariants.
		for i, n := range c.nodes {
			if c.up[i] {
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
