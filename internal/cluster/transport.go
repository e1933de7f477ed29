package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"anurand/internal/delegate"
)

// MsgHeartbeat is the runtime's liveness beacon. It rides the delegate
// wire format with a kind outside the protocol range; the runtime
// consumes heartbeats itself and never hands them to the Node, so the
// protocol layer stays ignorant of them. The Round field carries the
// sender's current round — the delegate's heartbeats are also its
// round announcements.
const MsgHeartbeat delegate.MsgKind = 0x10

// Transport moves protocol messages between runtimes. Send may be
// called from multiple goroutines; it delivers at-most-once per call
// and reports a definite local failure (an unreachable peer looks like
// a lost message, not an error, on lossy transports). SendAsync is the
// non-blocking path the runtime sends all its gossip through: it
// enqueues the message and returns immediately, true when the
// transport accepted it (delivery remains best-effort, as with Send on
// a lossy fabric), false when it was dropped on the floor — per-peer
// queue full or transport closed. One slow or dead peer therefore never
// stalls a round's broadcast to the others; drops are surfaced in Stats
// and the protocol's retry cadence (re-announced rounds, re-broadcast
// maps, migration retries) heals them exactly like wire loss. Recv is
// the inbound stream for the local node; it may be closed by Close,
// and consumers must also watch their own stop signal. A received
// Payload is the receiver's to keep: a transport never reuses or
// rewrites it (TCP allocates one per frame; MemNetwork passes the
// sender's slice, which senders never modify after sending). The
// runtime relies on this to keep an installed map's payload as its
// encoding.
type Transport interface {
	Send(msg delegate.Message) error
	SendAsync(msg delegate.Message) bool
	Recv() <-chan delegate.Message
	Close() error
}

// AsyncTransport is an alias of Transport for callers that still name
// it.
type AsyncTransport = Transport

// AddressBook maps node ids to dialable addresses; it is safe for
// concurrent use so listeners can register while dialers look up.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[delegate.NodeID]string
}

// NewAddressBook creates an empty address book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[delegate.NodeID]string)}
}

// Set registers or replaces the address of a node.
func (b *AddressBook) Set(id delegate.NodeID, addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs[id] = addr
}

// Get returns the registered address of a node.
func (b *AddressBook) Get(id delegate.NodeID) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	addr, ok := b.addrs[id]
	return addr, ok
}

// All returns a copy of the registered addresses.
func (b *AddressBook) All() map[delegate.NodeID]string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[delegate.NodeID]string, len(b.addrs))
	for id, addr := range b.addrs {
		out[id] = addr
	}
	return out
}

// Wire framing shared by every stream transport (version 3 — version 2
// had no flags byte, version 1 neither ver nor epoch; both are rejected
// by version check, so a mixed-version cluster fails loudly at the
// first frame instead of corrupting state):
//
//	ver u8 | kind u8 | flags u8 | from i32 | to i32 | epoch u64 | round u64 | len u32 | payload
//
// little-endian, matching the integer-only encodings of package anu.
// The flags byte gossips out-of-band sender state on every message;
// today its only bit is FlagMigrating.
const (
	frameVersion   = 3
	frameHeaderLen = 1 + 1 + 1 + 4 + 4 + 8 + 8 + 4
)

// FlagMigrating is set on every frame a node sends while a live
// strategy migration is in flight on it (Proposed or DualTag). It is
// informational gossip — surfaced in Stats so operators can see a
// cutover propagate — never a correctness input: reordered frames make
// flag edges unreliable, so rollback decisions ride the explicit
// migration messages and timeouts instead.
const FlagMigrating uint8 = 1 << 0

// errFrameVersion marks a frame whose version byte is not ours — the
// peer speaks an older (or newer) protocol build. Stream transports
// count these separately from transport errors: a v2 peer dialing a v3
// cluster is an operator mistake worth its own counter.
var errFrameVersion = fmt.Errorf("cluster: unsupported frame version")

// putFrameHeader encodes msg's header into dst, which must be at least
// frameHeaderLen bytes. It never allocates — this is the wire hot path,
// and at cluster scale every heartbeat to every peer passes through it.
func putFrameHeader(dst []byte, msg delegate.Message) {
	_ = dst[frameHeaderLen-1]
	dst[0] = frameVersion
	dst[1] = byte(msg.Kind)
	dst[2] = msg.Flags
	binary.LittleEndian.PutUint32(dst[3:7], uint32(msg.From))
	binary.LittleEndian.PutUint32(dst[7:11], uint32(msg.To))
	binary.LittleEndian.PutUint64(dst[11:19], msg.Epoch)
	binary.LittleEndian.PutUint64(dst[19:27], msg.Round)
	binary.LittleEndian.PutUint32(dst[27:31], uint32(len(msg.Payload)))
}

// appendFrame appends the complete wire frame for msg to dst and
// returns the extended slice. With a caller-reused buffer of sufficient
// capacity it is allocation-free.
func appendFrame(dst []byte, msg delegate.Message) []byte {
	off := len(dst)
	need := off + frameHeaderLen + len(msg.Payload)
	if cap(dst) < need {
		grown := make([]byte, off, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+frameHeaderLen]
	putFrameHeader(dst[off:], msg)
	return append(dst, msg.Payload...)
}

// writeFrame writes one framed message. It allocates a fresh buffer per
// call; the pooled transports use appendFrame / putFrameHeader with
// per-connection buffers instead.
func writeFrame(w io.Writer, msg delegate.Message) error {
	buf := appendFrame(make([]byte, 0, frameHeaderLen+len(msg.Payload)), msg)
	_, err := w.Write(buf)
	return err
}

// readFrameBuf reads one framed message using the caller's header
// scratch (at least frameHeaderLen bytes), rejecting unknown frame
// versions (errFrameVersion) and payloads larger than maxPayload so a
// corrupt length field cannot exhaust memory. An empty payload — the
// dominant case: heartbeats — returns a nil Payload without allocating,
// so a per-connection read loop holding its own scratch decodes
// heartbeats at zero allocations.
func readFrameBuf(r io.Reader, head []byte, maxPayload int) (delegate.Message, error) {
	head = head[:frameHeaderLen]
	if _, err := io.ReadFull(r, head); err != nil {
		return delegate.Message{}, err
	}
	if head[0] != frameVersion {
		return delegate.Message{}, fmt.Errorf("%w: got %d, want %d", errFrameVersion, head[0], frameVersion)
	}
	n := binary.LittleEndian.Uint32(head[27:31])
	if int(n) > maxPayload {
		return delegate.Message{}, fmt.Errorf("cluster: frame payload %d exceeds limit %d", n, maxPayload)
	}
	var payload []byte
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return delegate.Message{}, err
		}
	}
	return delegate.Message{
		Kind:    delegate.MsgKind(head[1]),
		Flags:   head[2],
		From:    delegate.NodeID(binary.LittleEndian.Uint32(head[3:7])),
		To:      delegate.NodeID(binary.LittleEndian.Uint32(head[7:11])),
		Epoch:   binary.LittleEndian.Uint64(head[11:19]),
		Round:   binary.LittleEndian.Uint64(head[19:27]),
		Payload: payload,
	}, nil
}

// readFrame is readFrameBuf with a throwaway header scratch, for tests
// and fuzzing.
func readFrame(r io.Reader, maxPayload int) (delegate.Message, error) {
	var head [frameHeaderLen]byte
	return readFrameBuf(r, head[:], maxPayload)
}
