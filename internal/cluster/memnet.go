package cluster

import (
	"fmt"
	"math"
	"time"

	"sync"

	"anurand/internal/delegate"
	"anurand/internal/rng"
)

// ChaosConfig shapes the in-memory lossy network. Each message is
// independently dropped with probability Drop, duplicated with
// probability Duplicate, and every delivered copy is delayed by a
// uniform draw from [MinDelay, MaxDelay] — random per-copy delays are
// what reorder traffic, exactly like queueing jitter on a real path.
type ChaosConfig struct {
	Drop      float64
	Duplicate float64
	MinDelay  time.Duration
	MaxDelay  time.Duration
	Seed      uint64
}

// validate rejects nonsensical chaos parameters.
func (c ChaosConfig) validate() error {
	if c.Drop < 0 || c.Drop >= 1 || c.Duplicate < 0 || c.Duplicate >= 1 {
		return fmt.Errorf("cluster: chaos probabilities (%g, %g) outside [0, 1)", c.Drop, c.Duplicate)
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("cluster: chaos delays (%v, %v) invalid", c.MinDelay, c.MaxDelay)
	}
	return nil
}

// ChaosStats counts what the network did to traffic.
type ChaosStats struct {
	Sent, Dropped, Duplicated, Delivered, Overflowed uint64
}

// MemNetwork connects MemEndpoints through a seeded lossy, reordering
// fabric shaped by a ChaosConfig. It carries every in-process runtime
// test, soak and benchmark, from 2 nodes to hundreds. Zero-delay copies
// are delivered inline without touching the scheduler at all. Delayed
// copies go on a memQueue: the message is stored once in a slab slot and
// only a small (due, seq, slot) ref moves through the heap, so neither a
// push nor a pop copies envelopes around, and nothing allocates once the
// slab and heap have grown. One scheduler goroutine delivers what is due
// and sleeps on one reused timer until the earliest due ref; it records
// that due time as armed, under mu. A send wakes it only when a copy
// comes due before armed (always, when it sleeps with an empty heap),
// so a fan-out whose copies fall due after the armed deadline costs the
// scheduler no wakeup, and delivery order and timing are as if it
// re-armed on every push. The cost per message is one mutex
// acquisition. The randomness stream is deterministic for a seed and
// copies due at the same instant are delivered in send order, though
// the interleaving of senders still depends on goroutine scheduling.
type MemNetwork struct {
	mu      sync.Mutex
	cfg     ChaosConfig
	src     *rng.Source
	eps     map[delegate.NodeID]*MemEndpoint
	queue   memQueue
	clock0  time.Time // origin of the queue's monotonic due times
	stats   ChaosStats
	recvBuf int
	closed  bool
	// armed is the due time, in ns since clock0, the scheduler will next
	// wake at unprompted; unarmed when it waits with an empty heap.
	armed int64

	wake chan struct{} // cap 1: nudges the scheduler after an earlier push
	done chan struct{}
}

// unarmed is armed's value while the scheduler sleeps without a
// deadline: every push comes due before it.
const unarmed = math.MaxInt64

// memQueue holds the fabric's delayed deliveries. Messages live in a
// slab whose freed slots are reused through a free list; a 4-ary
// min-heap orders refs to them by due time, then by seq, so copies due
// at the same instant come out in push order.
type memQueue struct {
	slab []delegate.Message
	free []int32
	heap []memRef
	seq  uint64
}

// memRef is one heap entry: a slab slot and its delivery order.
type memRef struct {
	due  int64 // ns since the fabric's clock0
	seq  uint64
	slot int32
}

// before orders refs by due time, then by push order.
func (a memRef) before(b memRef) bool {
	return a.due < b.due || (a.due == b.due && a.seq < b.seq)
}

// len returns how many messages are queued.
func (q *memQueue) len() int { return len(q.heap) }

// next returns the earliest due time; the queue must be non-empty.
func (q *memQueue) next() int64 { return q.heap[0].due }

// push stores msg in a free slab slot and sifts its ref up the heap.
func (q *memQueue) push(due int64, msg delegate.Message) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = msg
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, msg)
	}
	q.seq++
	ref := memRef{due: due, seq: q.seq, slot: slot}
	q.heap = append(q.heap, ref)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ref.before(q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = ref
}

// pop removes the earliest ref, frees its slot and returns its message;
// the queue must be non-empty.
func (q *memQueue) pop() delegate.Message {
	slot := q.heap[0].slot
	msg := q.slab[slot]
	q.slab[slot] = delegate.Message{} // drop the payload reference
	q.free = append(q.free, slot)
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		i := 0
		for {
			least := -1
			for c := 4*i + 1; c <= 4*i+4 && c < n; c++ {
				if least < 0 || q.heap[c].before(q.heap[least]) {
					least = c
				}
			}
			if least < 0 || !q.heap[least].before(last) {
				break
			}
			q.heap[i] = q.heap[least]
			i = least
		}
		q.heap[i] = last
	}
	return msg
}

// NewMemNetwork creates the fabric and starts its scheduler. Endpoints
// receive into buffers of recvBuf messages (0 means a default sized for
// soak traffic); a full inbox is overflow loss, never a block.
func NewMemNetwork(cfg ChaosConfig, recvBuf int) (*MemNetwork, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if recvBuf <= 0 {
		recvBuf = 1024
	}
	mn := &MemNetwork{
		cfg:     cfg,
		src:     rng.New(cfg.Seed),
		eps:     make(map[delegate.NodeID]*MemEndpoint),
		clock0:  time.Now(),
		recvBuf: recvBuf,
		armed:   unarmed,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go mn.run()
	return mn, nil
}

// SetConfig swaps the loss/delay profile at runtime; the randomness
// stream keeps its position and already-scheduled envelopes keep their
// old delays.
func (mn *MemNetwork) SetConfig(cfg ChaosConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	mn.mu.Lock()
	cfg.Seed = mn.cfg.Seed
	mn.cfg = cfg
	mn.mu.Unlock()
	return nil
}

// Endpoint creates (or returns) the transport endpoint for a node. A
// closed endpoint is replaced by a fresh one, as a restarted process
// binds a new socket. Envelopes are addressed to the node id, not the
// endpoint: one that comes due while the id's endpoint is closed is
// swallowed, and one that comes due after a successor has bound the id
// is delivered to the successor, like packets still on the wire when a
// server restarts on the same address. The (epoch, round) fence
// absorbs whatever of that traffic is stale.
func (mn *MemNetwork) Endpoint(id delegate.NodeID) *MemEndpoint {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	if ep, ok := mn.eps[id]; ok && !ep.closed {
		return ep
	}
	ep := &MemEndpoint{
		mn:   mn,
		id:   id,
		recv: make(chan delegate.Message, mn.recvBuf),
	}
	mn.eps[id] = ep
	return ep
}

// Stats returns the fabric's counters.
func (mn *MemNetwork) Stats() ChaosStats {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.stats
}

// Pending returns how many delayed envelopes await delivery — a soak
// can watch it drain to zero before reading final counters.
func (mn *MemNetwork) Pending() int {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.queue.len()
}

// Close stops the scheduler and all delivery. Idempotent.
func (mn *MemNetwork) Close() {
	mn.mu.Lock()
	if mn.closed {
		mn.mu.Unlock()
		return
	}
	mn.closed = true
	mn.queue = memQueue{}
	mn.mu.Unlock()
	close(mn.done)
}

// run is the single scheduler goroutine: deliver everything due, then
// sleep on one reused timer until the next due envelope or a wake.
func (mn *MemNetwork) run() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		wait := time.Duration(-1)
		mn.mu.Lock()
		if mn.closed {
			mn.mu.Unlock()
			return
		}
		mn.armed = unarmed
		if mn.queue.len() > 0 {
			now := int64(time.Since(mn.clock0))
			for mn.queue.len() > 0 {
				if due := mn.queue.next(); due > now {
					wait = time.Duration(due - now)
					mn.armed = due
					break
				}
				msg := mn.queue.pop()
				mn.deliverLocked(msg.To, msg)
			}
		}
		mn.mu.Unlock()
		if wait < 0 {
			// Heap empty: nothing to time out on.
			select {
			case <-mn.wake:
			case <-mn.done:
				return
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-mn.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-mn.done:
			if !timer.Stop() {
				<-timer.C
			}
			return
		}
	}
}

// deliverLocked hands one copy to the destination endpoint. A missing
// or closed endpoint swallows the message; a full inbox counts as
// overflow loss.
func (mn *MemNetwork) deliverLocked(to delegate.NodeID, msg delegate.Message) {
	dest, ok := mn.eps[to]
	if !ok || dest.closed {
		return
	}
	select {
	case dest.recv <- msg:
		mn.stats.Delivered++
	default:
		mn.stats.Overflowed++
	}
}

// MemEndpoint is one node's attachment to the fabric.
type MemEndpoint struct {
	mn     *MemNetwork
	id     delegate.NodeID
	recv   chan delegate.Message
	closed bool
}

// SendAsync implements Transport by running the chaos model for one
// message under the fabric lock: zero-delay copies are delivered
// inline, delayed copies go on the heap, and the scheduler is nudged
// only when a copy comes due before the deadline it is armed for. The
// fabric never blocks a sender (a full inbox is overflow loss); false
// only when the fabric or endpoint closed.
func (e *MemEndpoint) SendAsync(msg delegate.Message) bool {
	mn := e.mn
	mn.mu.Lock()
	if mn.closed || e.closed {
		mn.mu.Unlock()
		return false
	}
	mn.stats.Sent++
	if mn.cfg.Drop > 0 && mn.src.Float64() < mn.cfg.Drop {
		mn.stats.Dropped++
		mn.mu.Unlock()
		return true // accepted, then lost — as on the wire
	}
	copies := 1
	if mn.cfg.Duplicate > 0 && mn.src.Float64() < mn.cfg.Duplicate {
		copies = 2
		mn.stats.Duplicated++
	}
	span := float64(mn.cfg.MaxDelay - mn.cfg.MinDelay)
	nudge := false
	now := int64(-1)
	for i := 0; i < copies; i++ {
		d := mn.cfg.MinDelay
		if span > 0 {
			d += time.Duration(mn.src.Float64() * span)
		}
		if d <= 0 {
			mn.deliverLocked(msg.To, msg)
			continue
		}
		if now < 0 {
			now = int64(time.Since(mn.clock0))
		}
		due := now + int64(d)
		mn.queue.push(due, msg)
		if due < mn.armed {
			// The scheduler sleeps past this copy: wake it, and record
			// the earlier deadline so later copies due after it do not
			// wake it again. It re-arms from the heap when it runs.
			mn.armed = due
			nudge = true
		}
	}
	mn.mu.Unlock()
	if nudge {
		select {
		case mn.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// Send is SendAsync without the verdict; loss is silent, as on a real
// network. The benchmark's recording endpoint is its last caller.
func (e *MemEndpoint) Send(msg delegate.Message) error {
	e.SendAsync(msg)
	return nil
}

// Recv implements Transport.
func (e *MemEndpoint) Recv() <-chan delegate.Message { return e.recv }

// Close implements Transport: the endpoint stops receiving. The
// channel is left open — consumers exit on their own stop signal — so
// a late scheduled delivery can never panic on a closed channel.
func (e *MemEndpoint) Close() error {
	e.mn.mu.Lock()
	e.closed = true
	e.mn.mu.Unlock()
	return nil
}
