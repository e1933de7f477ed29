package cluster

import (
	"fmt"
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
// test, soak and benchmark, from 2 nodes to hundreds: one scheduler
// goroutine runs over a value min-heap of pending envelopes, a send
// pushes a by-value envelope (no allocation once the heap's backing
// array has grown), zero-delay copies are delivered inline without
// touching the scheduler at all, and one reused timer sleeps until the
// earliest due envelope. The cost per message is one mutex
// acquisition. The randomness stream is deterministic for a seed,
// though the interleaving still depends on goroutine scheduling.
type MemNetwork struct {
	mu      sync.Mutex
	cfg     ChaosConfig
	src     *rng.Source
	eps     map[delegate.NodeID]*MemEndpoint
	heap    []memEnv // min-heap on due, scheduler-owned ordering
	stats   ChaosStats
	recvBuf int
	closed  bool

	wake chan struct{} // cap 1: nudges the scheduler after a push
	done chan struct{}
}

// memEnv is one scheduled delivery. It travels by value through the
// heap so steady-state traffic never allocates.
type memEnv struct {
	due time.Time
	to  delegate.NodeID
	msg delegate.Message
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
		recvBuf: recvBuf,
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
	return len(mn.heap)
}

// Close stops the scheduler and all delivery. Idempotent.
func (mn *MemNetwork) Close() {
	mn.mu.Lock()
	if mn.closed {
		mn.mu.Unlock()
		return
	}
	mn.closed = true
	mn.heap = nil
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
		if len(mn.heap) > 0 {
			now := time.Now()
			for len(mn.heap) > 0 {
				e := mn.heap[0]
				if e.due.After(now) {
					wait = e.due.Sub(now)
					break
				}
				mn.popLocked()
				mn.deliverLocked(e.to, e.msg)
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

// pushLocked adds an envelope to the min-heap (sift-up on due time).
func (mn *MemNetwork) pushLocked(e memEnv) {
	mn.heap = append(mn.heap, e)
	i := len(mn.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !mn.heap[i].due.Before(mn.heap[parent].due) {
			break
		}
		mn.heap[i], mn.heap[parent] = mn.heap[parent], mn.heap[i]
		i = parent
	}
}

// popLocked removes the minimum envelope (sift-down), keeping the
// backing array for reuse.
func (mn *MemNetwork) popLocked() {
	n := len(mn.heap) - 1
	mn.heap[0] = mn.heap[n]
	mn.heap[n] = memEnv{} // drop payload reference
	mn.heap = mn.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && mn.heap[l].due.Before(mn.heap[min].due) {
			min = l
		}
		if r < n && mn.heap[r].due.Before(mn.heap[min].due) {
			min = r
		}
		if min == i {
			return
		}
		mn.heap[i], mn.heap[min] = mn.heap[min], mn.heap[i]
		i = min
	}
}

// MemEndpoint is one node's attachment to the fabric.
type MemEndpoint struct {
	mn     *MemNetwork
	id     delegate.NodeID
	recv   chan delegate.Message
	closed bool
}

// send runs the chaos model for one message under the fabric lock:
// zero-delay copies are delivered inline, delayed copies go on the
// heap, and the scheduler is nudged only when something was scheduled.
func (e *MemEndpoint) send(msg delegate.Message) bool {
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
	scheduled := false
	var now time.Time
	for i := 0; i < copies; i++ {
		d := mn.cfg.MinDelay
		if span > 0 {
			d += time.Duration(mn.src.Float64() * span)
		}
		if d <= 0 {
			mn.deliverLocked(msg.To, msg)
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		mn.pushLocked(memEnv{due: now.Add(d), to: msg.To, msg: msg})
		scheduled = true
	}
	mn.mu.Unlock()
	if scheduled {
		select {
		case mn.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// Send implements Transport. Loss is silent, as on a real network.
func (e *MemEndpoint) Send(msg delegate.Message) error {
	e.send(msg)
	return nil
}

// SendAsync implements AsyncTransport. The fabric never blocks a
// sender (a full inbox is overflow loss), so the async path is the
// chaos model itself; false only when the fabric or endpoint closed.
func (e *MemEndpoint) SendAsync(msg delegate.Message) bool {
	return e.send(msg)
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
