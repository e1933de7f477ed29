package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/delegate"
)

// TCP transport settings. They are constants, not options: no caller
// needs other values, so only the listen address is a parameter.
const (
	// dialTimeout bounds connection establishment to a peer.
	dialTimeout = 500 * time.Millisecond
	// writeTimeout bounds one framed write.
	writeTimeout = 500 * time.Millisecond
	// idleTimeout closes inbound connections with no traffic.
	idleTimeout = 2 * time.Minute
	// maxRetries is how many times a failed write is retried, with
	// exponential backoff from backoffBase and full jitter, before the
	// frame is given up. The longest backoff is 2 × backoffBase, short
	// enough to need no cap.
	maxRetries  = 2
	backoffBase = 5 * time.Millisecond
	// maxPayload bounds accepted frame payloads.
	maxPayload = 1 << 20
	// recvBuffer is the capacity of the inbound message channel.
	recvBuffer = 1024
	// sendQueue is the per-peer outbound queue depth. A full queue
	// fails SendAsync, counted as a queue drop.
	sendQueue = 256
)

// TCPStats is an operator snapshot of one transport's activity.
type TCPStats struct {
	// Sent counts frames handed to the kernel; SendErrors counts frames
	// a writer gave up on after maxRetries.
	Sent, SendErrors uint64
	Dials, Retries   uint64
	FramesReceived   uint64
	// BadVersionFrames counts inbound frames rejected for a foreign
	// frame version — a peer running an incompatible protocol build
	// (e.g. a v2 node dialing a v3 cluster). Each rejection also drops
	// that stream: version skew is a config error, not noise.
	BadVersionFrames uint64
	// QueueFullDrops counts SendAsync messages dropped because a
	// peer's bounded send queue was full (or the transport was
	// closed). QueueDropsByPeer breaks the per-peer drops out, so a
	// single wedged peer is identifiable at a glance; only peers with
	// drops appear.
	QueueFullDrops   uint64
	QueueDropsByPeer map[delegate.NodeID]uint64
}

// smallFrame bounds payloads coalesced with the header into a writer's
// pooled buffer (one small write, no allocation). Larger payloads —
// placement snapshots — go out as a vectored write (net.Buffers) so
// the bytes the runtime broadcasts are never re-copied per peer.
const smallFrame = 4 << 10

// frameWriter is the per-connection write state: a header scratch for
// the empty-payload fast path, a pooled coalescing buffer for small
// frames, and a reusable two-element vector for writev of large ones.
// It is owned by exactly one writer goroutine, which is what makes a
// multi-write large frame safe: no concurrent sender can interleave
// bytes into the stream between its chunks.
type frameWriter struct {
	hdr [frameHeaderLen]byte
	buf []byte
	vec [2][]byte
}

// writeTo writes one frame to conn. Empty payloads (heartbeats, the
// dominant message kind) touch only the header scratch: zero
// allocations, one small write.
func (fw *frameWriter) writeTo(conn net.Conn, msg delegate.Message) error {
	if len(msg.Payload) == 0 {
		putFrameHeader(fw.hdr[:], msg)
		_, err := conn.Write(fw.hdr[:])
		return err
	}
	if len(msg.Payload) <= smallFrame {
		if fw.buf == nil {
			fw.buf = make([]byte, 0, frameHeaderLen+smallFrame)
		}
		fw.buf = appendFrame(fw.buf[:0], msg)
		_, err := conn.Write(fw.buf)
		return err
	}
	putFrameHeader(fw.hdr[:], msg)
	fw.vec[0], fw.vec[1] = fw.hdr[:], msg.Payload
	bufs := net.Buffers(fw.vec[:])
	_, err := bufs.WriteTo(conn)
	fw.vec[0], fw.vec[1] = nil, nil
	return err
}

// tcpPeer is the outbound lane to one peer: a bounded queue drained by
// a dedicated writer goroutine that owns the pooled connection.
type tcpPeer struct {
	to    delegate.NodeID
	queue chan delegate.Message
	drops atomic.Uint64
}

// TCPTransport implements Transport over TCP with one writer goroutine
// and one pooled outbound connection per peer. Sends enqueue to the
// destination's bounded queue; the writer dials lazily, retries broken
// streams on a fresh dial with exponential backoff and jitter (reusing
// one timer across backoffs), and is the only goroutine that touches
// the connection — so concurrent senders can never interleave frame
// bytes, and a dead peer's backoff stalls only that peer's lane.
// SendAsync never blocks; queue-full drops are counted per peer.
type TCPTransport struct {
	id   delegate.NodeID
	book *AddressBook
	ln   net.Listener
	recv chan delegate.Message
	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	peers   map[delegate.NodeID]*tcpPeer
	conns   map[delegate.NodeID]net.Conn
	inbound map[net.Conn]struct{}
	closed  bool

	// Counters are atomics: at fan-out scale every send from every
	// writer bumps them, and a shared mutex here would re-serialize
	// exactly the path the per-peer writers decouple.
	sent       atomic.Uint64
	sendErr    atomic.Uint64
	dials      atomic.Uint64
	retries    atomic.Uint64
	frames     atomic.Uint64
	badVer     atomic.Uint64
	queueDrops atomic.Uint64
	jitter     atomic.Uint64
}

// ListenTCP starts a transport listening for peers on addr (for
// example "127.0.0.1:0") and registers its address in the book.
func ListenTCP(id delegate.NodeID, book *AddressBook, addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d listen: %w", id, err)
	}
	t := &TCPTransport{
		id:      id,
		book:    book,
		ln:      ln,
		recv:    make(chan delegate.Message, recvBuffer),
		done:    make(chan struct{}),
		peers:   make(map[delegate.NodeID]*tcpPeer),
		conns:   make(map[delegate.NodeID]net.Conn),
		inbound: make(map[net.Conn]struct{}),
	}
	t.jitter.Store(uint64(id)*0x9e3779b97f4a7c15 + 1)
	book.Set(id, ln.Addr().String())
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Recv implements Transport.
func (t *TCPTransport) Recv() <-chan delegate.Message { return t.recv }

// jitterFloat draws a uniform [0,1) variate from a lock-free splitmix64
// stream, so retrying writers never serialize on a shared RNG lock.
func (t *TCPTransport) jitterFloat() float64 {
	x := t.jitter.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// peerFor returns the outbound lane to a peer, spawning its writer on
// first use; nil after Close.
func (t *TCPTransport) peerFor(to delegate.NodeID) *tcpPeer {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	p, ok := t.peers[to]
	if !ok {
		p = &tcpPeer{to: to, queue: make(chan delegate.Message, sendQueue)}
		t.peers[to] = p
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	t.mu.Unlock()
	return p
}

// SendAsync implements Transport: non-blocking enqueue onto the
// peer's lane. False means the message was dropped — queue full or
// transport closed — which is counted, never an error: the runtime's
// gossip cadence re-sends, exactly as it would after wire loss. The
// enqueue itself is allocation-free, so heartbeat fan-out to N peers
// costs N channel sends and nothing else on the caller's goroutine.
func (t *TCPTransport) SendAsync(msg delegate.Message) bool {
	p := t.peerFor(msg.To)
	if p == nil {
		t.queueDrops.Add(1)
		return false
	}
	select {
	case p.queue <- msg:
		return true
	default:
		p.drops.Add(1)
		t.queueDrops.Add(1)
		return false
	}
}

// writeLoop drains one peer's queue, owning its pooled connection and
// write state for the transport's lifetime.
func (t *TCPTransport) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	var fw frameWriter
	// One reusable timer serves every backoff this writer ever takes;
	// time.After here would leak a timer allocation per retry.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer func() {
		if conn != nil {
			t.forgetConn(p.to, conn)
			conn.Close()
		}
	}()
	for {
		select {
		case <-t.done:
			t.failPending(p)
			return
		case msg := <-p.queue:
			if t.writeWithRetry(p.to, &conn, &fw, msg, timer) {
				t.sent.Add(1)
			} else {
				t.sendErr.Add(1)
			}
		}
	}
}

// failPending drains a closing peer's queue, counting the frames still
// in it as drops.
func (t *TCPTransport) failPending(p *tcpPeer) {
	for {
		select {
		case <-p.queue:
			p.drops.Add(1)
			t.queueDrops.Add(1)
		default:
			return
		}
	}
}

// writeWithRetry writes one frame on the pooled connection, dialing as
// needed; a broken stream is dropped and retried on a fresh dial with
// exponential backoff and jitter. It reports whether the frame was
// handed to the kernel.
func (t *TCPTransport) writeWithRetry(to delegate.NodeID, conn *net.Conn, fw *frameWriter, msg delegate.Message, timer *time.Timer) bool {
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			t.retries.Add(1)
			backoff := backoffBase << (attempt - 1)
			// Full jitter keeps a burst of retrying writers from
			// re-colliding in lockstep.
			backoff = time.Duration(float64(backoff) * (0.5 + 0.5*t.jitterFloat()))
			timer.Reset(backoff)
			select {
			case <-t.done:
				if !timer.Stop() {
					<-timer.C
				}
				return false
			case <-timer.C:
			}
		}
		if *conn == nil {
			c, err := t.dial(to)
			if err != nil {
				continue
			}
			*conn = c
		}
		// A deadline that cannot be set means the socket is already
		// dead: drop it and redial rather than write into the void.
		if err := (*conn).SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			t.dropConn(to, conn)
			continue
		}
		if err := fw.writeTo(*conn, msg); err != nil {
			// The pooled stream is broken (peer restart, timeout);
			// drop it so the retry dials fresh.
			t.dropConn(to, conn)
			continue
		}
		return true
	}
	return false
}

// dial opens and registers a fresh connection to a peer.
func (t *TCPTransport) dial(to delegate.NodeID) (net.Conn, error) {
	addr, ok := t.book.Get(to)
	if !ok {
		return nil, fmt.Errorf("cluster: node %d: no address for peer %d", t.id, to)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("cluster: node %d: transport closed", t.id)
	}
	t.conns[to] = conn
	t.mu.Unlock()
	return conn, nil
}

// dropConn closes and forgets a broken pooled connection.
func (t *TCPTransport) dropConn(to delegate.NodeID, conn *net.Conn) {
	t.forgetConn(to, *conn)
	(*conn).Close()
	*conn = nil
}

// forgetConn removes a connection from the registry Close uses to
// unblock writers.
func (t *TCPTransport) forgetConn(to delegate.NodeID, conn net.Conn) {
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

// acceptLoop serves inbound peer connections until Close.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serve(conn)
	}
}

// serve reads frames off one inbound connection into the recv channel.
// The read state — header scratch and buffered reader — lives for the
// connection, so a stream of heartbeats is consumed at zero allocations
// and many small frames coalesce into one read syscall.
func (t *TCPTransport) serve(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	var head [frameHeaderLen]byte
	for {
		// A read deadline that cannot be set means the socket is dead;
		// reading it would hang forever, so drop the stream.
		if err := conn.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
			return
		}
		msg, err := readFrameBuf(br, head[:], maxPayload)
		if err != nil {
			if errors.Is(err, errFrameVersion) {
				t.badVer.Add(1)
			}
			return // EOF, idle timeout, or a malformed frame: this stream is done
		}
		t.frames.Add(1)
		select {
		case t.recv <- msg:
		case <-t.done:
			return
		}
	}
}

// Close shuts the listener, per-peer writers, pooled connections and
// inbound streams, then closes the Recv channel.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inbound))
	for _, conn := range t.conns {
		conns = append(conns, conn)
	}
	for conn := range t.inbound {
		conns = append(conns, conn)
	}
	t.mu.Unlock()

	close(t.done)
	t.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	t.wg.Wait()
	close(t.recv)
	return nil
}

// Stats returns a snapshot of the transport's counters.
func (t *TCPTransport) Stats() TCPStats {
	s := TCPStats{
		Sent:             t.sent.Load(),
		SendErrors:       t.sendErr.Load(),
		Dials:            t.dials.Load(),
		Retries:          t.retries.Load(),
		FramesReceived:   t.frames.Load(),
		BadVersionFrames: t.badVer.Load(),
		QueueFullDrops:   t.queueDrops.Load(),
	}
	t.mu.Lock()
	for id, p := range t.peers {
		if d := p.drops.Load(); d > 0 {
			if s.QueueDropsByPeer == nil {
				s.QueueDropsByPeer = make(map[delegate.NodeID]uint64)
			}
			s.QueueDropsByPeer[id] = d
		}
	}
	t.mu.Unlock()
	return s
}
