package cluster

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"anurand/internal/delegate"
)

// benchTCPPair is testTCPPair for benchmarks (testing.TB), with the
// first frame already exchanged so the pooled connection, its writer
// goroutine, and the reader's bufio scratch all exist before timing
// starts.
func benchTCPPair(tb testing.TB) (*TCPTransport, *TCPTransport) {
	tb.Helper()
	book := NewAddressBook()
	a, err := ListenTCP(1, book, loopback)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	b, err := ListenTCP(2, book, loopback)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { b.Close() })
	if !a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2}) {
		tb.Fatal("warmup SendAsync refused")
	}
	select {
	case <-b.Recv():
	case <-time.After(5 * time.Second):
		tb.Fatal("warmup frame never arrived")
	}
	return a, b
}

// BenchmarkFrameEncode is the outbound hot path: header + payload into
// a reused per-connection buffer. Gated at 0 allocs/op.
func BenchmarkFrameEncode(b *testing.B) {
	msg := delegate.Message{
		Kind: delegate.MsgReport,
		From: 3, To: 7, Epoch: 2, Round: 9,
		Payload: bytes.Repeat([]byte{0xAB}, 256),
	}
	buf := make([]byte, 0, frameHeaderLen+len(msg.Payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], msg)
	}
	if len(buf) != frameHeaderLen+len(msg.Payload) {
		b.Fatal("bad frame length")
	}
}

// BenchmarkFrameDecodeHeartbeat is the inbound hot path for the
// dominant frame kind: an empty-payload heartbeat decoded with a
// caller-held header scratch. Gated at 0 allocs/op.
func BenchmarkFrameDecodeHeartbeat(b *testing.B) {
	wire := appendFrame(nil, delegate.Message{Kind: MsgHeartbeat, From: 3, To: 7, Epoch: 2, Round: 9})
	r := bytes.NewReader(wire)
	var head [frameHeaderLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		msg, err := readFrameBuf(r, head[:], 1<<20)
		if err != nil || msg.Round != 9 {
			b.Fatalf("decode: %v %+v", err, msg)
		}
	}
}

// BenchmarkHeartbeatSendRecv measures the full wire round: SendAsync
// on one TCP transport, frame over loopback, Recv on the other. The
// steady state — enqueue to the peer's writer, header-scratch write,
// bufio read into a reused header — is allocation-free end to end;
// gated at 0 allocs/op.
func BenchmarkHeartbeatSendRecv(b *testing.B) {
	a, peer := benchTCPPair(b)
	msg := delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Epoch: 1}
	recv := peer.Recv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Round = uint64(i)
		if !a.SendAsync(msg) {
			b.Fatal("SendAsync refused")
		}
		if got := <-recv; got.Round != msg.Round {
			b.Fatalf("round %d, want %d", got.Round, msg.Round)
		}
	}
	b.StopTimer()
	if st := a.Stats(); st.QueueFullDrops != 0 {
		b.Fatalf("lock-step benchmark dropped frames: %+v", st)
	}
}

// BenchmarkBroadcastEnqueue measures one gossip fan-out on the memnet
// fabric: SendAsync to every peer of a 50-node cluster, zero-delay
// inline delivery. The whole fan-out is allocation-free; gated at
// 0 allocs/op.
func BenchmarkBroadcastEnqueue(b *testing.B) {
	const n = 50
	mn, err := NewMemNetwork(ChaosConfig{Seed: 5}, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer mn.Close()
	eps := make([]*MemEndpoint, n)
	for i := range eps {
		eps[i] = mn.Endpoint(delegate.NodeID(i))
	}
	msg := delegate.Message{Kind: MsgHeartbeat, From: 0, Epoch: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Round = uint64(i)
		for p := 1; p < n; p++ {
			msg.To = delegate.NodeID(p)
			if !eps[0].SendAsync(msg) {
				b.Fatal("SendAsync refused")
			}
		}
	}
}

// BenchmarkBroadcastDelayed is BenchmarkBroadcastEnqueue with a random
// delay of up to 1 µs on every copy, so the whole fan-out goes through
// the scheduler's queue: 49 pushes in random due order, then one drain
// of every inbox. The delays are short enough that the copies are due
// by the time the sender blocks, so the cost is the queue and the
// hand-off rather than timer resolution. Gated at 0 allocs/op.
func BenchmarkBroadcastDelayed(b *testing.B) {
	const n = 50
	mn, err := NewMemNetwork(ChaosConfig{MinDelay: time.Nanosecond, MaxDelay: time.Microsecond, Seed: 5}, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer mn.Close()
	eps := make([]*MemEndpoint, n)
	for i := range eps {
		eps[i] = mn.Endpoint(delegate.NodeID(i))
	}
	msg := delegate.Message{Kind: MsgHeartbeat, From: 0, Epoch: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Round = uint64(i)
		for p := 1; p < n; p++ {
			msg.To = delegate.NodeID(p)
			if !eps[0].SendAsync(msg) {
				b.Fatal("SendAsync refused")
			}
		}
		for p := 1; p < n; p++ {
			if got := <-eps[p].Recv(); got.Round != msg.Round {
				b.Fatalf("peer %d got round %d, want %d", p, got.Round, msg.Round)
			}
		}
	}
}

// BenchmarkMapState is the coherence monitors' poll of a node's
// installed (epoch, round, fingerprint) on a 100-node ANU map. The
// fingerprint is cached per install, so the read is one atomic load and
// three field loads, with no lock. Gated at 0 allocs/op.
func BenchmarkMapState(b *testing.B) {
	ids, snapshot := bootstrap(b, 100)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 5}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer mn.Close()
	rt, err := Start(Config{ID: 0, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour}, mn.Endpoint(0))
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	_, _, want := rt.MapState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, fp := rt.MapState(); fp != want {
			b.Fatal("fingerprint changed")
		}
	}
}

// BenchmarkHeartbeatTargets is one heartbeat's target pick on member 99
// of a 100-node cluster whose lowest id has failed: a walk of the
// sorted liveness slots to the first lineSize heard members, under the
// runtime lock. Gated at 0 allocs/op.
func BenchmarkHeartbeatTargets(b *testing.B) {
	rt := heardRuntime(b, 100, 99)
	var line [lineSize]int
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.mu.Lock()
		if !rt.heartbeatLineLocked(now, &line) {
			b.Fatal("member 99 heartbeats everyone")
		}
		rt.mu.Unlock()
	}
	if rt.peers[line[0]] != 1 {
		b.Fatalf("line starts at %d, want 1", rt.peers[line[0]])
	}
}

// TestTCPConcurrentSendersFrameIntegrity hammers one transport pair
// from many goroutines with payloads spanning the small-frame copy
// path and the writev path, and verifies every delivered frame intact.
// This is the regression test for the interleaving hazard the per-peer
// writer goroutine removes: before it, two goroutines inside
// conn.Write could interleave header and payload bytes on the stream.
func TestTCPConcurrentSendersFrameIntegrity(t *testing.T) {
	a, b := testTCPPair(t)
	const senders = 8
	const perSender = 150

	// sizes straddle smallFrame so both write paths run concurrently.
	sizes := []int{0, 1, 100, smallFrame - frameHeaderLen, smallFrame + 1, 3 * smallFrame}
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				size := sizes[(s+i)%len(sizes)]
				payload := bytes.Repeat([]byte{byte(s)}, size)
				msg := delegate.Message{
					Kind: delegate.MsgReport, From: 1, To: 2,
					Epoch: uint64(s), Round: uint64(i), Payload: payload,
				}
				// A full lane refuses the frame; this test needs every
				// frame delivered, so retry until the writer drains.
				for !a.SendAsync(msg) {
					if time.Now().After(deadline) {
						t.Errorf("sender %d msg %d: lane never drained", s, i)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	got := 0
	for got < senders*perSender {
		select {
		case msg := <-b.Recv():
			want := sizes[(int(msg.Epoch)+int(msg.Round))%len(sizes)]
			if len(msg.Payload) != want {
				t.Fatalf("frame (%d,%d): payload %d bytes, want %d", msg.Epoch, msg.Round, len(msg.Payload), want)
			}
			for j, c := range msg.Payload {
				if c != byte(msg.Epoch) {
					t.Fatalf("frame (%d,%d): byte %d is %#x, want %#x — interleaved frames",
						msg.Epoch, msg.Round, j, c, byte(msg.Epoch))
				}
			}
			got++
		case <-time.After(20 * time.Second):
			t.Fatalf("stalled at %d/%d frames", got, senders*perSender)
		}
	}
	<-done
	if st := a.Stats(); st.SendErrors != 0 {
		t.Fatalf("send errors under concurrency: %+v", st)
	}
}

// TestHeartbeatPathZeroAlloc pins the end-to-end heartbeat path —
// SendAsync, writer enqueue, wire write, bufio read, Recv — at zero
// heap allocations per message. testing.AllocsPerRun runs GC around
// the measurement, so background goroutines of this test's own
// transports are quiesced by the lock-step send/recv inside the loop.
func TestHeartbeatPathZeroAlloc(t *testing.T) {
	a, b := benchTCPPair(t)
	msg := delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Epoch: 1, Round: 1}
	recv := b.Recv()
	// Warm beyond the benchTCPPair frame so every lazily-grown scratch
	// (bufio fill, writer buffer) reaches steady state.
	for i := 0; i < 64; i++ {
		if !a.SendAsync(msg) {
			t.Fatal("warmup SendAsync refused")
		}
		<-recv
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !a.SendAsync(msg) {
			t.Fatal("SendAsync refused")
		}
		<-recv
	})
	if allocs != 0 {
		t.Fatalf("heartbeat send/recv allocates %.1f times per message, want 0", allocs)
	}
}

// TestMemNetSendZeroAlloc pins the memnet fast path (zero-delay inline
// delivery) at zero allocations — the property that lets one process
// carry a 200-node cluster's gossip.
func TestMemNetSendZeroAlloc(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 11}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)
	msg := delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: 1}
	recv := b.Recv()
	allocs := testing.AllocsPerRun(200, func() {
		if !a.SendAsync(msg) {
			t.Fatal("SendAsync refused")
		}
		<-recv
	})
	if allocs != 0 {
		t.Fatalf("memnet send/recv allocates %.1f times per message, want 0", allocs)
	}
}
