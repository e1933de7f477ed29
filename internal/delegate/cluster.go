package delegate

import (
	"errors"
	"fmt"

	"anurand/internal/anu"
	"anurand/internal/hashx"
	"anurand/internal/placement"
	"anurand/internal/rng"
)

// MemTransport is the harness's in-memory message queue, with
// deterministic, seedable chaos — message loss, duplication, and
// one-round delay (which makes old messages arrive after newer ones,
// i.e. reordering across rounds) — enough to exercise the protocol's
// tolerance of what real networks do, without wall-clock timing. A
// delivered message is handed over as sent: its payload is never reused
// or rewritten.
type MemTransport struct {
	boxes map[NodeID][]Message
	// deferred holds freshly delayed messages; a Deliver promotes them
	// to due, and a later Deliver hands due messages over after the
	// current batch — so they arrive a full cycle late and out of order
	// relative to newer traffic.
	deferred   map[NodeID][]Message
	due        map[NodeID][]Message
	src        *rng.Source
	lossProb   float64
	dupProb    float64
	delayProb  float64
	sent       uint64
	dropped    uint64
	duplicated uint64
	delayed    uint64
}

// NewMemTransport creates a lossless in-memory transport.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		boxes:    make(map[NodeID][]Message),
		deferred: make(map[NodeID][]Message),
		due:      make(map[NodeID][]Message),
	}
}

// SetLoss makes the transport drop each message independently with
// probability p, using a deterministic stream from seed.
func (t *MemTransport) SetLoss(p float64, seed uint64) {
	t.SetChaos(p, 0, 0, seed)
}

// SetChaos configures independent per-message drop, duplicate and
// delay probabilities with a deterministic stream from seed. A delayed
// message is held for one Deliver cycle and then handed over after any
// newer messages — the in-memory model of network reordering.
func (t *MemTransport) SetChaos(drop, dup, delay float64, seed uint64) {
	for _, p := range []float64{drop, dup, delay} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("delegate: SetChaos probability %g outside [0, 1)", p))
		}
	}
	t.lossProb, t.dupProb, t.delayProb = drop, dup, delay
	t.src = rng.New(seed)
}

// Send queues a message for delivery. It never blocks.
func (t *MemTransport) Send(msg Message) {
	t.sent++
	if t.lossProb > 0 && t.src.Float64() < t.lossProb {
		t.dropped++
		return
	}
	copies := 1
	if t.dupProb > 0 && t.src.Float64() < t.dupProb {
		copies = 2
		t.duplicated++
	}
	for i := 0; i < copies; i++ {
		if t.delayProb > 0 && t.src.Float64() < t.delayProb {
			t.deferred[msg.To] = append(t.deferred[msg.To], msg)
			t.delayed++
			continue
		}
		t.boxes[msg.To] = append(t.boxes[msg.To], msg)
	}
}

// Deliver drains the messages currently deliverable to the given node.
// Messages delayed on a previous cycle are delivered after the current
// batch — old traffic arriving late.
func (t *MemTransport) Deliver(to NodeID) []Message {
	msgs := t.boxes[to]
	t.boxes[to] = nil
	if late := t.due[to]; len(late) > 0 {
		t.due[to] = nil
		msgs = append(msgs, late...)
	}
	if queued := t.deferred[to]; len(queued) > 0 {
		t.deferred[to] = nil
		t.due[to] = append(t.due[to], queued...)
	}
	return msgs
}

// Stats returns (sent, dropped) counters.
func (t *MemTransport) Stats() (sent, dropped uint64) { return t.sent, t.dropped }

// ChaosStats returns (sent, dropped, duplicated, delayed) counters.
func (t *MemTransport) ChaosStats() (sent, dropped, duplicated, delayed uint64) {
	return t.sent, t.dropped, t.duplicated, t.delayed
}

// Cluster is a round-synchronous harness over a set of Nodes: each
// Step models one tuning interval — local observation, report exchange,
// delegate election, rescale, and map distribution. It is the
// protocol-level companion of the performance simulator in
// package clustersim.
type Cluster struct {
	Nodes []*Node
	tr    *MemTransport
	round uint64
	// epoch is the view epoch: it increments whenever the election
	// produces a different delegate than the previous step, so maps from
	// a superseded delegate are fenced out by (epoch, round) ordering.
	epoch   uint64
	lastDel NodeID
}

// NewCluster builds a cluster of k agents sharing one initial map.
func NewCluster(k int, hashSeed uint64, cfg anu.ControllerConfig) (*Cluster, error) {
	if k <= 0 {
		return nil, fmt.Errorf("delegate: NewCluster: k=%d", k)
	}
	ids := make([]NodeID, k)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	m, err := anu.New(hashx.NewFamily(hashSeed), ids)
	if err != nil {
		return nil, err
	}
	snapshot := m.Encode()
	c := &Cluster{tr: NewMemTransport(), lastDel: -1}
	for _, id := range ids {
		n, err := NewNode(id, snapshot, placement.Options{Controller: cfg})
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Transport exposes the in-memory transport (for loss injection).
func (c *Cluster) Transport() *MemTransport { return c.tr }

// Round returns the number of completed tuning rounds.
func (c *Cluster) Round() uint64 { return c.round }

// Epoch returns the current view epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// Node returns the agent with the given id, or nil.
func (c *Cluster) Node(id NodeID) *Node {
	for _, n := range c.Nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// Delegate returns the currently elected delegate id.
func (c *Cluster) Delegate() (NodeID, bool) { return Elect(c.Nodes) }

// Members returns the membership view the delegate tunes over: every
// node, up as its Up flag says — the flag Elect reads.
func (c *Cluster) Members() []placement.Member {
	members := make([]placement.Member, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		members = append(members, placement.Member{ID: n.ID(), Up: n.Up()})
	}
	return members
}

// Step executes one tuning interval: every live node sends its last
// observation to the elected delegate, the delegate rescales from what
// arrived, and the harness sends the new map to every other member,
// which live nodes install. It returns the delegate that acted. A
// malformed message rejects only itself: the round completes, and Step
// returns the rejections it saw.
func (c *Cluster) Step() (NodeID, error) {
	c.round++
	del, ok := Elect(c.Nodes)
	if !ok {
		return -1, fmt.Errorf("delegate: no live nodes")
	}
	if del != c.lastDel {
		c.epoch++
		c.lastDel = del
	}
	for _, n := range c.Nodes {
		if n.ID() == del {
			continue
		}
		if msg, ok := n.Report(del, c.epoch, c.round); ok {
			c.tr.Send(msg)
		}
	}
	// The delegate takes its mail, rescales, and the map goes out.
	delNode := c.Node(del)
	rejected := c.deliver(delNode)
	snapshot, err := delNode.Rescale(c.epoch, c.round, c.Members())
	if err != nil {
		return del, errors.Join(append(rejected, err)...)
	}
	for _, n := range c.Nodes {
		if n.ID() != del {
			c.tr.Send(Message{Kind: MsgMap, From: del, To: n.ID(), Epoch: c.epoch, Round: c.round, Payload: snapshot})
		}
	}
	// Everyone else takes theirs, installing the newest map received.
	for _, n := range c.Nodes {
		if n.ID() != del {
			rejected = append(rejected, c.deliver(n)...)
		}
	}
	return del, errors.Join(rejected...)
}

// deliver hands every message deliverable to n to its Receive, in
// order, and returns the rejections. A dead node's mail is discarded.
func (c *Cluster) deliver(n *Node) []error {
	var rejected []error
	for _, msg := range c.tr.Deliver(n.ID()) {
		if _, err := n.Receive(msg, c.round); err != nil {
			rejected = append(rejected, err)
		}
	}
	return rejected
}

// Converged reports whether every live node holds a byte-identical map.
func (c *Cluster) Converged() bool {
	var want uint64
	first := true
	for _, n := range c.Nodes {
		if !n.Up() {
			continue
		}
		fp := n.Fingerprint()
		if first {
			want = fp
			first = false
			continue
		}
		if fp != want {
			return false
		}
	}
	return true
}
