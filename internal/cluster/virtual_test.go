package cluster

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/placement"
	"anurand/internal/rng"
)

// virtualNet is the virtual clock: it steps unstarted runtimes
// (newRuntime) on one simulated clock, with no goroutine and no timer.
// In-flight messages wait in a memQueue, ordered by (due, seq, slot);
// each send draws its loss, duplication and delay from one seeded
// source, as MemNetwork does. A step advances the clock to the earlier
// of the queue head and the smallest runtime deadline (next), and on a
// tie delivers the message first, then fires the lowest node id. So a
// seed replays exactly. A crashed node is neither fired nor delivered
// to until restart replaces its runtime.
type virtualNet struct {
	tb     testing.TB
	base   Config // what restart rebuilds a runtime from
	origin time.Time
	now    time.Duration // since origin
	chaos  ChaosConfig
	src    *rng.Source
	queue  memQueue
	rts    []*Runtime // by node id: ids are 0..n-1
	down   []bool     // by node id: crashed and not restarted
	// drop, when set, loses a message at send time before chaos draws:
	// a silenced node or a held link.
	drop func(msg delegate.Message, now time.Duration) bool

	digest hash.Hash64
	buf    []byte
	maps   []mapState // each node's installed map, as last recorded
	// producers records the first fingerprint installed at each
	// (epoch, round); splits counts installs that disagreed with it.
	producers map[[2]uint64]uint64
	splits    int
	delivered int
	lost      int // messages the chaos model dropped
}

// mapState is one node's installed (epoch, round, fingerprint).
type mapState struct{ epoch, round, fp uint64 }

// virtualOrigin is the virtual clock's fixed origin: any instant works,
// as long as every run of a seed uses the same one.
var virtualOrigin = time.Date(2004, 6, 4, 0, 0, 0, 0, time.UTC)

// virtualEndpoint is one runtime's Transport on a virtualNet. It has no
// receive channel: virtualNet calls handle itself.
type virtualEndpoint struct{ vn *virtualNet }

func (e virtualEndpoint) SendAsync(msg delegate.Message) bool { e.vn.send(msg); return true }
func (e virtualEndpoint) Recv() <-chan delegate.Message       { return nil }
func (e virtualEndpoint) Close() error                        { return nil }

// newVirtualNet builds one unstarted runtime per member of base (ids
// 0..n-1) at the virtual origin.
func newVirtualNet(t testing.TB, base Config, chaos ChaosConfig) *virtualNet {
	t.Helper()
	vn := &virtualNet{
		tb:        t,
		base:      base,
		origin:    virtualOrigin,
		chaos:     chaos,
		src:       rng.New(chaos.Seed),
		digest:    fnv.New64a(),
		maps:      make([]mapState, len(base.Members)),
		down:      make([]bool, len(base.Members)),
		producers: make(map[[2]uint64]uint64),
	}
	for i, id := range base.Members {
		if id != delegate.NodeID(i) {
			t.Fatalf("virtual net needs members 0..n-1, got %v", base.Members)
		}
		cfg := base
		cfg.ID = id
		rt, err := newRuntime(cfg, virtualEndpoint{vn}, vn.origin)
		if err != nil {
			t.Fatal(err)
		}
		vn.rts = append(vn.rts, rt)
		vn.record(id)
	}
	return vn
}

// send runs the chaos model for one message and queues each copy.
func (vn *virtualNet) send(msg delegate.Message) {
	if vn.drop != nil && vn.drop(msg, vn.now) {
		return
	}
	if vn.chaos.Drop > 0 && vn.src.Float64() < vn.chaos.Drop {
		vn.lost++
		return
	}
	copies := 1
	if vn.chaos.Duplicate > 0 && vn.src.Float64() < vn.chaos.Duplicate {
		copies = 2
	}
	span := float64(vn.chaos.MaxDelay - vn.chaos.MinDelay)
	for range copies {
		d := vn.chaos.MinDelay
		if span > 0 {
			d += time.Duration(vn.src.Float64() * span)
		}
		vn.queue.push(int64(vn.now+d), msg)
	}
}

// runUntil steps the cluster until the next event would fall at or
// after until.
func (vn *virtualNet) runUntil(until time.Duration) {
	for {
		fire, at := -1, until
		for i, rt := range vn.rts {
			if d := rt.next().Sub(vn.origin); d < at && !vn.down[i] {
				fire, at = i, d
			}
		}
		if vn.queue.len() > 0 && time.Duration(vn.queue.next()) <= at && time.Duration(vn.queue.next()) < until {
			vn.now = time.Duration(vn.queue.next())
			msg := vn.queue.pop()
			if vn.down[msg.To] {
				continue
			}
			vn.hashMessage(msg)
			vn.rts[msg.To].handle(msg, vn.time())
			vn.record(msg.To)
			continue
		}
		if fire < 0 {
			vn.now = until
			return
		}
		vn.now = at
		vn.rts[fire].fire(vn.time())
		vn.record(delegate.NodeID(fire))
	}
}

// crash takes node id down: it is neither fired nor delivered to, and
// a message that falls due while it is down is lost.
func (vn *virtualNet) crash(id delegate.NodeID) { vn.down[id] = true }

// restart brings node id back as a fresh runtime at the current virtual
// time, bootstrapped from the snapshot of live peer donor. Its install
// fence starts again at (0, 0), so the monotonicity check in record
// re-baselines there.
func (vn *virtualNet) restart(id, donor delegate.NodeID) {
	cfg := vn.base
	cfg.ID = id
	cfg.Snapshot = vn.rts[donor].Snapshot()
	rt, err := newRuntime(cfg, virtualEndpoint{vn}, vn.time())
	if err != nil {
		vn.tb.Fatal(err)
	}
	vn.rts[id], vn.down[id] = rt, false
	var ms mapState
	ms.epoch, ms.round, ms.fp = rt.MapState()
	vn.maps[id] = ms
}

// up lists the ids of the nodes that are not down, lowest first.
func (vn *virtualNet) up() []delegate.NodeID {
	var ids []delegate.NodeID
	for i, down := range vn.down {
		if !down {
			ids = append(ids, delegate.NodeID(i))
		}
	}
	return ids
}

// time is the virtual clock's reading.
func (vn *virtualNet) time() time.Time { return vn.origin.Add(vn.now) }

// hashMessage folds one delivery into the digest.
func (vn *virtualNet) hashMessage(msg delegate.Message) {
	vn.delivered++
	b := vn.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(vn.now))
	b = binary.LittleEndian.AppendUint32(b, uint32(msg.From))
	b = binary.LittleEndian.AppendUint32(b, uint32(msg.To))
	b = append(b, byte(msg.Kind), msg.Flags)
	b = binary.LittleEndian.AppendUint64(b, msg.Epoch)
	b = binary.LittleEndian.AppendUint64(b, msg.Round)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(msg.Payload)))
	vn.buf = b
	vn.digest.Write(b)
	vn.digest.Write(msg.Payload)
}

// record folds node id's install into the digest when its map changed,
// fails the test if the install moved its (epoch, round) backwards, and
// checks it against the first map seen at the same (epoch, round).
func (vn *virtualNet) record(id delegate.NodeID) {
	var ms mapState
	ms.epoch, ms.round, ms.fp = vn.rts[id].MapState()
	prev := vn.maps[id]
	if ms == prev {
		return
	}
	if pairLess(ms.epoch, ms.round, prev.epoch, prev.round) {
		vn.tb.Fatalf("at %v node %d installed (%d, %d) after (%d, %d)", vn.now, id, ms.epoch, ms.round, prev.epoch, prev.round)
	}
	vn.maps[id] = ms
	b := binary.LittleEndian.AppendUint32(vn.buf[:0], uint32(id))
	b = binary.LittleEndian.AppendUint64(b, ms.epoch)
	b = binary.LittleEndian.AppendUint64(b, ms.round)
	b = binary.LittleEndian.AppendUint64(b, ms.fp)
	vn.buf = b
	vn.digest.Write(b)
	key := [2]uint64{ms.epoch, ms.round}
	if fp, ok := vn.producers[key]; !ok {
		vn.producers[key] = ms.fp
	} else if fp != ms.fp {
		vn.splits++
	}
}

const virtualRound = 100 * time.Millisecond

// virtualConfig is the cluster runVirtual drives: n members of the
// given strategy, closed-loop observed, every liveness knob at its
// default.
func virtualConfig(t testing.TB, strategy string, n int) Config {
	ids, snapshot := bootstrapStrategy(t, n, strategy)
	speeds := make(map[delegate.NodeID]float64, n)
	for i, id := range ids {
		speeds[id] = 1 + float64(i%4)
	}
	return Config{
		Members:       ids,
		Snapshot:      snapshot,
		Strategy:      strategy,
		RoundInterval: virtualRound,
		Observe:       closedLoopObserve(speeds),
	}
}

// runVirtual runs 200 rounds of a chaotic cluster on the virtual clock:
// 2% loss, 2% duplication, up to 5 ms of delay. The delegate (node 0) is
// silenced for rounds 60–65 and heard again after, and the last 30
// rounds are calm (delay only).
func runVirtual(t testing.TB, strategy string, n int, seed uint64) *virtualNet {
	t.Helper()
	chaos := ChaosConfig{Drop: 0.02, Duplicate: 0.02, MaxDelay: 5 * time.Millisecond, Seed: seed}
	vn := newVirtualNet(t, virtualConfig(t, strategy, n), chaos)
	vn.drop = func(msg delegate.Message, now time.Duration) bool {
		return msg.From == 0 && now >= 60*virtualRound && now < 66*virtualRound
	}
	vn.runUntil(170 * virtualRound)
	vn.chaos.Drop, vn.chaos.Duplicate = 0, 0
	vn.runUntil(200 * virtualRound)
	return vn
}

// TestVirtualReplay runs every registered strategy at 5 nodes, and
// chord-bounded at 50, for 200 rounds on the virtual clock over seeds
// 1–3, each seed twice. The same seed must replay the same digest of
// every delivered message and every install, different seeds must
// differ, and after the calm tail every node must hold one map. The
// virtual clock starts no goroutine.
func TestVirtualReplay(t *testing.T) {
	// virtualNet is one goroutine, so the race detector has nothing to
	// find in it; under -race the 50-node cell replays one seed, which
	// keeps the package inside go test's timeout.
	seeds := func(n int) uint64 {
		if raceEnabled && n > 5 {
			return 1
		}
		return 3
	}
	type cell struct {
		strategy string
		n        int
	}
	var cells []cell
	for _, name := range placement.Names() {
		cells = append(cells, cell{name, 5})
	}
	cells = append(cells, cell{placement.StrategyChordBounded, 50})
	// Wait out goroutines that earlier tests left exiting.
	base := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, still = n, -1
		}
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/n=%d", c.strategy, c.n), func(t *testing.T) {
			base := base + 1 // the subtest's own goroutine
			seen := make(map[uint64]uint64)
			for seed := uint64(1); seed <= seeds(c.n); seed++ {
				first := runVirtual(t, c.strategy, c.n, seed)
				if got := runtime.NumGoroutine(); got > base {
					t.Fatalf("seed %d: %d goroutines after a virtual run, %d before", seed, got, base)
				}
				again := runVirtual(t, c.strategy, c.n, seed)
				digest := first.digest.Sum64()
				if again.digest.Sum64() != digest || again.delivered != first.delivered {
					t.Fatalf("seed %d replayed digest %#x over %d messages, first run %#x over %d",
						seed, again.digest.Sum64(), again.delivered, digest, first.delivered)
				}
				if other, dup := seen[digest]; dup {
					t.Fatalf("seeds %d and %d share digest %#x", other, seed, digest)
				}
				seen[digest] = seed
				for id, ms := range first.maps {
					if ms.fp != first.maps[0].fp || ms.round < 150 {
						t.Fatalf("seed %d: node %d holds map (%d, %d, %#x), node 0 (%d, %d, %#x): no single map after the calm tail",
							seed, id, ms.epoch, ms.round, ms.fp, first.maps[0].epoch, first.maps[0].round, first.maps[0].fp)
					}
				}
				t.Logf("seed %d: digest %#x, %d messages, final map round %d, %d split installs",
					seed, digest, first.delivered, first.maps[0].round, first.splits)
			}
		})
	}
}

// TestNextIsEarliestDeadline: next is the earliest of the heartbeat
// deadline, the round deadline and a pending tune's cutoff.
func TestNextIsEarliestDeadline(t *testing.T) {
	rt := newVirtualNet(t, virtualConfig(t, placement.StrategyANU, 3), ChaosConfig{}).rts[0]
	at := func(ms int) time.Time { return virtualOrigin.Add(time.Duration(ms) * time.Millisecond) }
	none := time.Time{}
	for _, tc := range []struct {
		name                  string
		hb, round, tune, want time.Time
	}{
		{"heartbeat first, no tune", at(10), at(20), none, at(10)},
		{"round first, no tune", at(30), at(20), none, at(20)},
		{"tune first", at(30), at(20), at(5), at(5)},
		{"tune between", at(10), at(20), at(15), at(10)},
		{"tune with the round", at(30), at(20), at(20), at(20)},
	} {
		rt.hbAt, rt.roundAt, rt.tuneAt = tc.hb, tc.round, tc.tune
		if got := rt.next(); !got.Equal(tc.want) {
			t.Errorf("%s: next %v, want %v", tc.name, got.Sub(virtualOrigin), tc.want.Sub(virtualOrigin))
		}
	}
}

// TestLateFireSkipsMissedBeats fires a runtime three and a half rounds
// late. It must beat and tick once each, with no catch-up burst, and
// move both deadlines to the first interval boundary after the late
// time, as time.Ticker drops the ticks it missed. A fire exactly at a
// deadline moves it one interval on.
func TestLateFireSkipsMissedBeats(t *testing.T) {
	const n = 3
	rt := newVirtualNet(t, virtualConfig(t, placement.StrategyANU, n), ChaosConfig{}).rts[0]
	hb := rt.cfg.HeartbeatInterval
	rt.fire(virtualOrigin)
	if want := virtualOrigin.Add(hb); !rt.hbAt.Equal(want) {
		t.Fatalf("after the start-up heartbeat the next is due at %v, want %v", rt.hbAt.Sub(virtualOrigin), hb)
	}
	if want := virtualOrigin.Add(virtualRound); !rt.roundAt.Equal(want) || rt.Round() != 0 {
		t.Fatalf("round %d, next due at %v: want round 0 and the first tick at %v", rt.Round(), rt.roundAt.Sub(virtualOrigin), virtualRound)
	}
	sent := rt.Stats().HeartbeatsSent
	late := virtualOrigin.Add(3*virtualRound + virtualRound/2) // 28 heartbeat intervals
	rt.fire(late)
	if want := virtualOrigin.Add(29 * hb); !rt.hbAt.Equal(want) {
		t.Errorf("late fire: next heartbeat at %v, want %v", rt.hbAt.Sub(virtualOrigin), want.Sub(virtualOrigin))
	}
	if want := virtualOrigin.Add(4 * virtualRound); !rt.roundAt.Equal(want) {
		t.Errorf("late fire: next round at %v, want %v", rt.roundAt.Sub(virtualOrigin), want.Sub(virtualOrigin))
	}
	if r := rt.Round(); r != 1 {
		t.Errorf("late fire opened %d rounds, want 1", r)
	}
	// One heartbeat to every peer, and one round announcement.
	if got := rt.Stats().HeartbeatsSent - sent; got != 2*(n-1) {
		t.Errorf("late fire sent %d heartbeats, want %d", got, 2*(n-1))
	}
	due := rt.hbAt
	rt.fire(due)
	if want := due.Add(hb); !rt.hbAt.Equal(want) {
		t.Errorf("fire at the deadline: next heartbeat at %v, want %v", rt.hbAt.Sub(virtualOrigin), want.Sub(virtualOrigin))
	}
}

// TestQuorumPullsTuneDeadline runs five nodes on the virtual clock with
// a fixed 1 ms delay and node 4's reports lost. When the delegate opens
// round 1 its tune is due half a round later, after its next heartbeat.
// The Quorum-th report, 2 ms after the round opened, pulls the cutoff in
// to 4 ms: next must follow it, and the tune must fire there.
func TestQuorumPullsTuneDeadline(t *testing.T) {
	vn := newVirtualNet(t, virtualConfig(t, placement.StrategyANU, 5), ChaosConfig{MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	vn.drop = func(msg delegate.Message, _ time.Duration) bool {
		return msg.From == 4 && msg.Kind == delegate.MsgReport
	}
	del := vn.rts[0]
	open := virtualOrigin.Add(virtualRound)
	vn.runUntil(virtualRound + time.Millisecond)
	if del.Round() != 1 || !del.tuneAt.Equal(open.Add(virtualRound/2)) {
		t.Fatalf("round %d with its tune due at %v, want round 1 due at %v",
			del.Round(), del.tuneAt.Sub(open), virtualRound/2)
	}
	if !del.next().Equal(del.hbAt) {
		t.Fatalf("next %v after the round opened, want the heartbeat at %v", del.next().Sub(open), del.hbAt.Sub(open))
	}
	vn.runUntil(virtualRound + 3*time.Millisecond)
	cutoff := open.Add(4 * time.Millisecond)
	if !del.tuneAt.Equal(cutoff) || !del.next().Equal(cutoff) {
		t.Fatalf("after the quorum: tune due at %v, next %v, want both at %v",
			del.tuneAt.Sub(open), del.next().Sub(open), cutoff.Sub(open))
	}
	if tunes := del.Stats().Tunes; tunes != 0 {
		t.Fatalf("%d tunes before the cutoff", tunes)
	}
	vn.runUntil(virtualRound + 4*time.Millisecond + 1)
	if tunes := del.Stats().Tunes; tunes != 1 {
		t.Fatalf("%d tunes at the cutoff, want 1", tunes)
	}
}
