package cluster

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"anurand/internal/delegate"
)

// loopback is the listen address of every test transport: an ephemeral
// port, so concurrent tests never collide.
const loopback = "127.0.0.1:0"

func testTCPPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	book := NewAddressBook()
	a, err := ListenTCP(1, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP(2, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

func recvOne(t *testing.T, tr *TCPTransport) delegate.Message {
	t.Helper()
	select {
	case msg := <-tr.Recv():
		return msg
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a message")
		return delegate.Message{}
	}
}

func sendOne(t *testing.T, tr *TCPTransport, msg delegate.Message) {
	t.Helper()
	if !tr.SendAsync(msg) {
		t.Fatalf("SendAsync refused %+v", msg)
	}
}

func TestTCPDeliversAndPoolsConnections(t *testing.T) {
	a, b := testTCPPair(t)
	const n = 25
	for i := 0; i < n; i++ {
		sendOne(t, a, delegate.Message{
			Kind:    delegate.MsgReport,
			From:    1,
			To:      2,
			Round:   uint64(i + 1),
			Payload: []byte{byte(i), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		})
	}
	for i := 0; i < n; i++ {
		got := recvOne(t, b)
		if got.Round != uint64(i+1) || got.From != 1 {
			t.Fatalf("message %d arrived as %+v", i, got)
		}
	}
	// The writer counts a frame after the write returns, which can be
	// after the peer has read it.
	waitFor(t, 5*time.Second, "every frame counted as sent", func() bool { return a.Stats().Sent == n })
	stats := a.Stats()
	if stats.Dials != 1 {
		t.Fatalf("%d messages used %d dials, want 1 pooled connection", n, stats.Dials)
	}
	if stats.SendErrors != 0 {
		t.Fatalf("sent=%d errors=%d", stats.Sent, stats.SendErrors)
	}
}

func TestTCPSendUnknownPeerFails(t *testing.T) {
	a, _ := testTCPPair(t)
	sendOne(t, a, delegate.Message{Kind: delegate.MsgReport, From: 1, To: 99})
	waitFor(t, 5*time.Second, "the send to an unregistered peer to fail", func() bool { return a.Stats().SendErrors != 0 })
	if s := a.Stats(); s.SendErrors != 1 || s.Sent != 0 {
		t.Fatalf("SendErrors = %d, Sent = %d; want 1, 0", s.SendErrors, s.Sent)
	}
}

func TestTCPRetriesWithBackoffOnDeadPeer(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP(1, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A peer that once existed and is now gone: listener closed, port dead.
	dead, err := ListenTCP(2, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	sendOne(t, a, delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2})
	waitFor(t, 5*time.Second, "the send to a dead peer to fail", func() bool { return a.Stats().SendErrors != 0 })
	s := a.Stats()
	if s.SendErrors != 1 || s.Sent != 0 {
		t.Fatalf("send to dead peer: SendErrors = %d, Sent = %d; want 1, 0", s.SendErrors, s.Sent)
	}
	if s.Retries != maxRetries {
		t.Fatalf("Retries = %d, want %d", s.Retries, maxRetries)
	}
}

func TestTCPRecoversAfterPeerRestart(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP(1, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	sendOne(t, a, delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2, Round: 1})
	recvOne(t, b)
	// Peer restarts on a fresh port; the pooled connection is now dead.
	b.Close()
	b2, err := ListenTCP(2, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// The first write on the stale pooled connection may be buffered
	// locally before the RST arrives, so (like a heartbeater) keep
	// sending: the broken stream is dropped and the retry redials the
	// re-registered address.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if !a.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2, Round: 2}) {
			t.Logf("send after restart refused (retrying): %+v", a.Stats())
		}
		select {
		case got := <-b2.Recv():
			if got.Round != 2 {
				t.Fatalf("got %+v after restart", got)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no message arrived after peer restart")
		}
	}
}

func TestTCPCloseIsIdempotentAndStopsSends(t *testing.T) {
	a, _ := testTCPPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2}) {
		t.Fatal("send on closed transport accepted")
	}
	if s := a.Stats(); s.QueueFullDrops != 1 {
		t.Fatalf("QueueFullDrops = %d after a send on a closed transport, want 1", s.QueueFullDrops)
	}
}

// TestTCPQueueFullDropsCounted fills the lane to a peer that accepts
// connections but never reads, so the writer stalls once the socket
// buffers are full. Every refused SendAsync must be counted, in total
// and against that peer; Close must count the frames still queued as
// drops, so each accepted frame ends as exactly one of sent, failed or
// dropped.
func TestTCPQueueFullDropsCounted(t *testing.T) {
	ln, err := net.Listen("tcp", loopback)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptor holds every connection open, unread, until the
	// listener closes.
	acceptorDone := make(chan struct{})
	go func() {
		defer close(acceptorDone)
		var held []net.Conn
		defer func() {
			for _, conn := range held {
				conn.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()
	defer func() {
		ln.Close()
		<-acceptorDone
	}()

	const peer = delegate.NodeID(2)
	book := NewAddressBook()
	book.Set(peer, ln.Addr().String())
	a, err := ListenTCP(1, book, loopback)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Frames large enough that the socket buffers fill after a few
	// hundred; the payload is shared, so the test holds it once.
	msg := delegate.Message{Kind: delegate.MsgMap, From: 1, To: peer, Payload: make([]byte, 64<<10)}
	const attempts = 4000
	var accepted, refused uint64
	for i := 0; i < attempts; i++ {
		msg.Round = uint64(i)
		if a.SendAsync(msg) {
			accepted++
		} else {
			refused++
		}
	}
	if refused == 0 {
		t.Fatalf("%d sends to a peer that never reads all fit the %d-frame queue", attempts, sendQueue)
	}
	s := a.Stats()
	if s.QueueFullDrops != refused || s.QueueDropsByPeer[peer] != refused {
		t.Fatalf("%d sends refused, but QueueFullDrops = %d and QueueDropsByPeer[%d] = %d",
			refused, s.QueueFullDrops, peer, s.QueueDropsByPeer[peer])
	}

	a.Close()
	s = a.Stats()
	queued := s.QueueFullDrops - refused
	if queued == 0 {
		t.Fatalf("Close counted no queued frame as a drop: %+v", s)
	}
	if s.QueueDropsByPeer[peer] != s.QueueFullDrops {
		t.Fatalf("QueueDropsByPeer[%d] = %d, QueueFullDrops = %d", peer, s.QueueDropsByPeer[peer], s.QueueFullDrops)
	}
	if got := s.Sent + s.SendErrors + queued; got != accepted {
		t.Fatalf("%d frames accepted, but sent %d + failed %d + dropped at close %d = %d",
			accepted, s.Sent, s.SendErrors, queued, got)
	}
}

// TestTCPRejectsOldProtocolPeer models a node from a previous build (v2
// frames, no flags byte) dialing a v3 cluster: the stream must be
// dropped at the first frame, nothing delivered, and the rejection
// surfaced in BadVersionFrames.
func TestTCPRejectsOldProtocolPeer(t *testing.T) {
	a, b := testTCPPair(t)
	addr, _ := a.book.Get(b.id)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("v2 map bytes")
	v2 := make([]byte, 30+len(payload))
	v2[0] = 2
	v2[1] = byte(delegate.MsgMap)
	binary.LittleEndian.PutUint32(v2[26:30], uint32(len(payload)))
	copy(v2[30:], payload)
	if _, err := conn.Write(v2); err != nil {
		t.Fatal(err)
	}
	// The stream must be closed by the receiver.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("receiver kept the old-protocol stream open")
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().BadVersionFrames == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("BadVersionFrames never incremented: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case msg := <-b.Recv():
		t.Fatalf("old-protocol frame delivered: %+v", msg)
	default:
	}
	// The v3 path still works on a fresh stream.
	sendOne(t, a, delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}})
	recvOne(t, b)
	waitFor(t, 5*time.Second, "the v3 frame counted as sent", func() bool { return a.Stats().Sent == 1 })
}
