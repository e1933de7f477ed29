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

// Transport moves protocol messages between runtimes over a lossy
// network. The protocol never needs a delivery verdict — reports and
// maps are re-sent every round — so there is one send path. SendAsync may be called from multiple
// goroutines and never blocks: it returns true when the transport
// accepted the message (delivery remains best-effort) and false when
// the message was dropped on the floor, because the peer's queue is
// full or the transport is closed. One slow or dead peer therefore
// never stalls a round's broadcast to the others; drops are counted in
// the transport's stats and heal like wire loss. Recv is the inbound
// stream for the local node; it may be closed by Close, and consumers
// must also watch their own stop signal. A received Payload is the
// receiver's to keep: a transport never reuses or rewrites it (TCP
// allocates one per frame; MemNetwork passes the sender's slice, which
// senders never modify after sending). The runtime relies on this to
// keep an installed map's payload as its encoding.
type Transport interface {
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

// Wire framing shared by every stream transport (version 5 — version 4
// carried a flags byte after the kind, version 3 also the live-migration
// message kinds 0x20–0x24, version 2 had the v5 layout, version 1 had
// neither ver nor epoch; all are rejected by version check, so a
// mixed-version cluster fails loudly at the first frame instead of
// corrupting state):
//
//	ver u8 | kind u8 | from i32 | to i32 | epoch u64 | round u64 | len u32 | payload
//
// little-endian, matching the integer-only encodings of package anu.
const (
	frameVersion   = 5
	frameHeaderLen = 1 + 1 + 4 + 4 + 8 + 8 + 4
)

// errFrameVersion marks a frame whose version byte is not ours — the
// peer speaks an older (or newer) protocol build. Stream transports
// count these separately from transport errors: a v4 peer dialing a v5
// cluster is an operator mistake worth its own counter.
var errFrameVersion = fmt.Errorf("cluster: unsupported frame version")

// putFrameHeader encodes msg's header into dst, which must be at least
// frameHeaderLen bytes. It never allocates — this is the wire hot path,
// and at cluster scale every heartbeat to every peer passes through it.
func putFrameHeader(dst []byte, msg delegate.Message) {
	_ = dst[frameHeaderLen-1]
	dst[0] = frameVersion
	dst[1] = byte(msg.Kind)
	binary.LittleEndian.PutUint32(dst[2:6], uint32(msg.From))
	binary.LittleEndian.PutUint32(dst[6:10], uint32(msg.To))
	binary.LittleEndian.PutUint64(dst[10:18], msg.Epoch)
	binary.LittleEndian.PutUint64(dst[18:26], msg.Round)
	binary.LittleEndian.PutUint32(dst[26:30], uint32(len(msg.Payload)))
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
	n := binary.LittleEndian.Uint32(head[26:30])
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
		From:    delegate.NodeID(binary.LittleEndian.Uint32(head[2:6])),
		To:      delegate.NodeID(binary.LittleEndian.Uint32(head[6:10])),
		Epoch:   binary.LittleEndian.Uint64(head[10:18]),
		Round:   binary.LittleEndian.Uint64(head[18:26]),
		Payload: payload,
	}, nil
}

// readFrame is readFrameBuf with a throwaway header scratch, for tests
// and fuzzing.
func readFrame(r io.Reader, maxPayload int) (delegate.Message, error) {
	var head [frameHeaderLen]byte
	return readFrameBuf(r, head[:], maxPayload)
}
