package cluster

import (
	"testing"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/rng"
)

// TestMemNetDeliversInline checks the fast path: with no configured
// delay, a send is delivered before Send returns and nothing ever
// touches the scheduler heap.
func TestMemNetDeliversInline(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)

	msg := delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Epoch: 3, Round: 9}
	if !a.SendAsync(msg) {
		t.Fatal("SendAsync refused")
	}
	select {
	case got := <-b.Recv():
		if got.Kind != msg.Kind || got.From != msg.From || got.To != msg.To ||
			got.Epoch != msg.Epoch || got.Round != msg.Round {
			t.Fatalf("got %+v, want %+v", got, msg)
		}
	default:
		t.Fatal("zero-delay send was not delivered inline")
	}
	if n := mn.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after inline delivery, want 0", n)
	}
	st := mn.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v, want Sent=1 Delivered=1", st)
	}
}

// TestMemNetConfigValidation checks that both the constructor and
// SetConfig reject nonsensical chaos profiles.
func TestMemNetConfigValidation(t *testing.T) {
	bad := []ChaosConfig{
		{Drop: -0.1},
		{Drop: 1},
		{Duplicate: 1.5},
		{MinDelay: -time.Millisecond},
		{MinDelay: 2 * time.Millisecond, MaxDelay: time.Millisecond},
	}
	for _, cfg := range bad {
		if mn, err := NewMemNetwork(cfg, 0); err == nil {
			mn.Close()
			t.Errorf("config %+v accepted", cfg)
		}
	}
	mn, err := NewMemNetwork(ChaosConfig{Drop: 0.5, Duplicate: 0.5, MaxDelay: time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	if err := mn.SetConfig(ChaosConfig{Drop: 2}); err == nil {
		t.Error("SetConfig accepted an invalid profile")
	}
}

// TestMemNetDropsAboutHalf checks the drop rate tracks its probability
// and every sent message is either delivered or counted as dropped.
func TestMemNetDropsAboutHalf(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Drop: 0.5, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	src := mn.Endpoint(1)
	mn.Endpoint(2)
	const n = 1000
	done := make(chan int)
	go func() {
		got := 0
		for {
			select {
			case <-mn.Endpoint(2).Recv():
				got++
			case <-time.After(300 * time.Millisecond):
				done <- got
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		src.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2, Round: uint64(i)})
	}
	got := <-done
	if got < 350 || got > 650 {
		t.Fatalf("delivered %d of %d at 50%% drop", got, n)
	}
	stats := mn.Stats()
	if stats.Sent != n || stats.Dropped == 0 || stats.Dropped+uint64(got) != n {
		t.Fatalf("stats implausible: %+v (got %d)", stats, got)
	}
}

// TestMemNetDuplicatesAndDelays checks duplication adds copies and no
// copy arrives before MinDelay.
func TestMemNetDuplicatesAndDelays(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{
		Duplicate: 0.9,
		MinDelay:  5 * time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
		Seed:      2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	src := mn.Endpoint(1)
	dst := mn.Endpoint(2)
	start := time.Now()
	const n = 100
	for i := 0; i < n; i++ {
		src.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2})
	}
	got := 0
	var firstArrival time.Duration
	for {
		select {
		case <-dst.Recv():
			if got == 0 {
				firstArrival = time.Since(start)
			}
			got++
		case <-time.After(300 * time.Millisecond):
			if got <= n {
				t.Fatalf("received %d messages, want > %d with 90%% duplication", got, n)
			}
			if firstArrival < 4*time.Millisecond {
				t.Fatalf("first arrival after %v, want >= ~5ms delay", firstArrival)
			}
			if s := mn.Stats(); s.Duplicated == 0 {
				t.Fatalf("no duplicates recorded: %+v", s)
			}
			return
		}
	}
}

// TestMemNetDelayedDelivery checks the scheduler path: a fixed nonzero
// delay parks the envelope on the heap and delivers it afterwards.
func TestMemNetDelayedDelivery(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)

	start := time.Now()
	if !a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: 1}) {
		t.Fatal("SendAsync refused on open fabric")
	}
	select {
	case <-b.Recv():
		if el := time.Since(start); el < 10*time.Millisecond {
			t.Fatalf("delayed message arrived after %v, want >= ~20ms", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed message never delivered")
	}
}

// TestMemNetHeapOrdersDeliveries checks the min-heap releases envelopes
// in due order, not insertion order: a later-sent short-delay message
// overtakes an earlier long-delay one.
func TestMemNetHeapOrdersDeliveries(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)

	if err := mn.SetConfig(ChaosConfig{MinDelay: 80 * time.Millisecond, MaxDelay: 80 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_ = a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: 1}) // slow
	if err := mn.SetConfig(ChaosConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	_ = a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: 2}) // fast, sent second

	var got []uint64
	for len(got) < 2 {
		select {
		case m := <-b.Recv():
			got = append(got, m.Round)
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 messages delivered", len(got))
		}
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("delivery order %v, want [2 1] (due order, not send order)", got)
	}
}

// TestMemNetEarlierSendWakesScheduler pins the wake rule: the scheduler
// is nudged only for a copy due before the deadline it is armed for, so
// each send below, due earlier than everything before it, must wake it.
// A missed wake would hold the short-delay copies behind the hour-long
// one, and they would never arrive. Only the order is asserted.
func TestMemNetEarlierSendWakesScheduler(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)
	for round, d := range []time.Duration{time.Hour, 50 * time.Millisecond, time.Millisecond} {
		if err := mn.SetConfig(ChaosConfig{MinDelay: d, MaxDelay: d}); err != nil {
			t.Fatal(err)
		}
		if !a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: uint64(round)}) {
			t.Fatal("SendAsync refused on open fabric")
		}
		time.Sleep(time.Millisecond) // let the scheduler arm for this copy
	}
	var got []uint64
	for len(got) < 2 {
		select {
		case m := <-b.Recv():
			got = append(got, m.Round)
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %v, then nothing: the scheduler missed a wake", got)
		}
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("delivery order %v, want [2 1]", got)
	}
	if n := mn.Pending(); n != 1 {
		t.Fatalf("%d copies pending, want the hour-long one", n)
	}
}

// TestMemNetChaosAccounting checks the drop/duplicate ledger balances:
// every accepted copy is eventually delivered, dropped, or overflowed.
func TestMemNetChaosAccounting(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{
		Drop:      0.2,
		Duplicate: 0.2,
		MaxDelay:  2 * time.Millisecond,
		Seed:      42,
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)

	const n = 500
	done := make(chan struct{})
	var received int
	go func() {
		defer close(done)
		for {
			select {
			case <-b.Recv():
				received++
			case <-time.After(300 * time.Millisecond):
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		_ = a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: uint64(i)})
	}
	<-done

	st := mn.Stats()
	if st.Sent != n {
		t.Fatalf("Sent = %d, want %d", st.Sent, n)
	}
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("chaos never fired at 20%%/20%%: %+v", st)
	}
	copies := st.Sent - st.Dropped + st.Duplicated
	if st.Delivered+st.Overflowed != copies {
		t.Fatalf("ledger imbalance: delivered %d + overflowed %d != copies %d (%+v)",
			st.Delivered, st.Overflowed, copies, st)
	}
	if uint64(received) != st.Delivered {
		t.Fatalf("receiver saw %d, fabric counted %d delivered", received, st.Delivered)
	}
	if mn.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", mn.Pending())
	}
}

// TestMemNetClosedEndpointReplaced checks restart semantics: Endpoint
// after Close hands back a fresh endpoint, and envelopes still in
// flight to the dead one are delivered to its successor — they are
// addressed to the node id, like packets on the wire when a server
// restarts on the same address. The runtime's (epoch, round) fence,
// not the fabric, is what keeps such stale traffic from being
// installed (the crash-restart soaks exercise that).
func TestMemNetClosedEndpointReplaced(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{MaxDelay: 10 * time.Millisecond, Seed: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	a, b := mn.Endpoint(1), mn.Endpoint(2)

	const n = 50
	for i := 0; i < n; i++ {
		_ = a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 2, Round: uint64(i)})
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := mn.Endpoint(2)
	if b2 == b {
		t.Fatal("Endpoint returned the closed endpoint instead of a fresh one")
	}
	// Everything still scheduled once b2 is bound can only land on b2.
	inFlight := mn.Pending()
	if inFlight == 0 {
		t.Fatal("nothing in flight when the endpoint was replaced")
	}
	waitFor(t, 2*time.Second, "scheduled envelopes drain", func() bool { return mn.Pending() == 0 })
	drain := func(ep *MemEndpoint) (rounds []uint64) {
		for {
			select {
			case m := <-ep.Recv():
				rounds = append(rounds, m.Round)
			default:
				return rounds
			}
		}
	}
	toOld, toNew := drain(b), drain(b2)
	if len(toNew) < inFlight {
		t.Fatalf("successor received %d envelopes, want the %d in flight at restart", len(toNew), inFlight)
	}
	for _, r := range toNew {
		if r >= n {
			t.Fatalf("successor received round %d, never sent", r)
		}
	}
	if st := mn.Stats(); uint64(len(toOld)+len(toNew)) != st.Delivered {
		t.Fatalf("endpoints saw %d+%d, fabric counted %d delivered", len(toOld), len(toNew), st.Delivered)
	}
	if !b2.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 2, To: 2}) {
		t.Fatal("fresh endpoint refused SendAsync")
	}
}

// TestMemNetClosedEndpointBlackholes checks a closed endpoint that has
// not been replaced: traffic to it is swallowed, and its own sends are
// silent loss that the fabric does not count.
func TestMemNetClosedEndpointBlackholes(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	src := mn.Endpoint(1)
	dst := mn.Endpoint(2)
	dst.Close()
	if !src.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2}) {
		t.Fatal("send to a closed endpoint refused: it is wire loss, not a local failure")
	}
	select {
	case <-dst.Recv():
		t.Fatal("closed endpoint received a message")
	case <-time.After(50 * time.Millisecond):
	}
	if s := mn.Stats(); s.Delivered != 0 {
		t.Fatalf("delivered=%d to a closed endpoint", s.Delivered)
	}
	// The sender's own close blackholes its sends too.
	src.Close()
	if src.SendAsync(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2}) {
		t.Fatal("closed endpoint accepted a send")
	}
	if s := mn.Stats(); s.Sent != 1 {
		t.Fatalf("closed endpoint's send was counted: %+v", s)
	}
}

// TestMemNetCloseStopsFabric checks Close is idempotent and sends on a
// closed fabric are refused and not counted.
func TestMemNetCloseStopsFabric(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := mn.Endpoint(1)
	mn.Close()
	mn.Close()
	if a.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 1}) {
		t.Fatal("SendAsync accepted on closed fabric")
	}
	if st := mn.Stats(); st.Sent != 0 {
		t.Fatalf("closed fabric counted traffic: %+v", st)
	}
}

// TestMemQueueOrdersTiesFIFO drives the delayed-delivery queue with
// interleaved pushes and pops over a narrow range of due times, so many
// dues tie: every pop must return the earliest due still queued, ties
// in push order, while freed slab slots are reused and released.
func TestMemQueueOrdersTiesFIFO(t *testing.T) {
	var q memQueue
	src := rng.New(7)
	type ref struct {
		due int64
		seq uint64
	}
	var want []ref // queued refs, sorted by (due, seq)
	pushed, peak := uint64(0), 0
	for step := 0; step < 20000; step++ {
		if len(want) == 0 || src.Float64() < 0.55 {
			pushed++
			due := int64(src.Float64() * 40)
			q.push(due, delegate.Message{Round: pushed, Payload: []byte{1}})
			at := len(want)
			for at > 0 && want[at-1].due > due {
				at--
			}
			want = append(want, ref{})
			copy(want[at+1:], want[at:])
			want[at] = ref{due, pushed}
			peak = max(peak, len(want))
			continue
		}
		if got := q.next(); got != want[0].due {
			t.Fatalf("step %d: next due %d, want %d", step, got, want[0].due)
		}
		msg := q.pop()
		if msg.Round != want[0].seq {
			t.Fatalf("step %d: popped push #%d (due %d), want push #%d", step, msg.Round, want[0].due, want[0].seq)
		}
		want = want[1:]
		if q.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(want))
		}
	}
	if len(q.slab) > peak {
		t.Fatalf("slab grew to %d slots for at most %d queued messages", len(q.slab), peak)
	}
	for q.len() > 0 {
		q.pop()
	}
	for i, m := range q.slab {
		if m.Payload != nil {
			t.Fatalf("freed slot %d still references its payload", i)
		}
	}
}
