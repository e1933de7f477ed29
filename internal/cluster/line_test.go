package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
)

// TestHeartbeatTargets pins the heartbeat target rule on a 10-member
// cluster: a node that has heard lineSize members below its own id
// heartbeats only the lineSize lowest it heard, and every other node
// heartbeats everyone. Each case sets which members the node has heard
// and which it suspects, then sends one heartbeat round.
func TestHeartbeatTargets(t *testing.T) {
	const n = 10
	ids, snapshot := bootstrap(t, n)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	everyoneBut := func(self delegate.NodeID) []delegate.NodeID {
		return slices.DeleteFunc(slices.Clone(ids), func(id delegate.NodeID) bool { return id == self })
	}
	cases := []struct {
		name    string
		self    delegate.NodeID
		silent  []delegate.NodeID // never heard; every other member was heard just now
		suspect []delegate.NodeID // suspected by the watchdog
		want    []delegate.NodeID
	}{
		{name: "line member targets everyone", self: 1, want: everyoneBut(1)},
		{name: "lowest id targets everyone", self: 0, want: everyoneBut(0)},
		{name: "follower targets the line", self: 7, want: []delegate.NodeID{0, 1, 2}},
		{name: "line skips silent members", self: 7, silent: []delegate.NodeID{0, 2}, want: []delegate.NodeID{1, 3, 4}},
		{name: "fewer than k heard below targets everyone", self: 7, silent: []delegate.NodeID{1, 2, 3, 5, 6}, want: everyoneBut(7)},
		{name: "suspected delegate is still targeted", self: 7, suspect: []delegate.NodeID{0}, want: []delegate.NodeID{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var got []delegate.NodeID
			tr := filterTransport{Transport: mn.Endpoint(tc.self), drop: func(m delegate.Message) bool {
				if m.Kind == MsgHeartbeat {
					mu.Lock()
					got = append(got, m.To)
					mu.Unlock()
				}
				return true
			}}
			// An unstarted runtime: the test fires its steps by hand.
			now := time.Now()
			rt, err := newRuntime(Config{ID: tc.self, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour}, tr, now)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			// The start-up heartbeat goes to everyone: nobody is heard yet.
			rt.fire(now)
			mu.Lock()
			if len(got) != n-1 {
				t.Fatalf("the start-up heartbeat reached %d members, want %d", len(got), n-1)
			}
			mu.Unlock()
			rt.mu.Lock()
			for i, id := range rt.peers {
				rt.lastSeen[i] = int64(now.Sub(rt.clock0))
				if slices.Contains(tc.silent, id) {
					rt.lastSeen[i] = -1
				}
			}
			for _, id := range tc.suspect {
				i, _ := slices.BinarySearch(rt.peers, id)
				rt.suspectUntil[i] = int64(now.Add(time.Hour).Sub(rt.clock0))
			}
			before := rt.counters.HeartbeatsSent
			rt.mu.Unlock()
			mu.Lock()
			got = nil
			mu.Unlock()

			rt.sendHeartbeats(rt.heartbeatTargets(now))
			mu.Lock()
			defer mu.Unlock()
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("node %d heartbeats %v, want %v", tc.self, got, tc.want)
			}
			if sent := rt.Stats().HeartbeatsSent - before; sent != uint64(len(tc.want)) {
				t.Fatalf("HeartbeatsSent rose by %d for %d heartbeats", sent, len(tc.want))
			}
			for _, id := range tc.suspect {
				if slices.Contains(rt.Stats().Live, id) {
					t.Fatalf("suspected %d in the view %v", id, rt.Stats().Live)
				}
			}
		})
	}
}

// TestLivenessScansDoNotAllocate holds the per-heartbeat and per-tick
// liveness scans at zero allocations on a 100-member runtime.
func TestLivenessScansDoNotAllocate(t *testing.T) {
	rt := heardRuntime(t, 100, 99)
	var line [lineSize]int
	now := rt.clock0
	allocs := testing.AllocsPerRun(100, func() {
		rt.mu.Lock()
		rt.heartbeatLineLocked(now, &line)
		rt.lowestLiveLocked(now)
		rt.viewSizeLocked(now)
		rt.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("liveness scans allocate %.1f times per call, want 0", allocs)
	}
}

// heardRuntime builds member self of an n-member cluster with an
// hour-long round, unstarted, and marks every other member heard at its
// origin except the lowest id, a failed delegate.
func heardRuntime(tb testing.TB, n int, self delegate.NodeID) *Runtime {
	tb.Helper()
	ids, snapshot := bootstrap(tb, n)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 5}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(mn.Close)
	rt, err := newRuntime(Config{ID: self, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour}, mn.Endpoint(self), time.Now())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	for i := 1; i < len(rt.lastSeen); i++ {
		rt.lastSeen[i] = 0
	}
	return rt
}

// TestLineOnlyDelegateAnnouncesToEveryone fires member 7 of 10 as the
// delegate, with every id below it heard but suspected, so its beats go
// only to the line. A round it opens in the same instant as a beat must
// still be announced to every member, and the announcement must be the
// instant's only heartbeat.
func TestLineOnlyDelegateAnnouncesToEveryone(t *testing.T) {
	const n, self = 10, 7
	ids, snapshot := bootstrap(t, n)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	var got []delegate.Message // only this goroutine sends
	tr := filterTransport{Transport: mn.Endpoint(self), drop: func(m delegate.Message) bool {
		if m.Kind == MsgHeartbeat {
			got = append(got, m)
		}
		return true
	}}
	t0 := time.Now()
	rt, err := newRuntime(Config{ID: self, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour}, tr, t0)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	rt.mu.Lock()
	for i, id := range rt.peers {
		rt.lastSeen[i] = 0 // heard at t0
		if id < self {
			rt.suspectUntil[i] = int64(2 * time.Hour)
		}
	}
	rt.curDelegate = self
	rt.mu.Unlock()
	rt.hbAt = t0.Add(time.Hour) // due with the first round
	rt.fire(rt.hbAt)
	if !rt.hbLineOnly {
		t.Fatal("the beat did not go to the line")
	}
	to := make(map[delegate.NodeID]bool)
	for _, m := range got {
		if m.Round != 1 || to[m.To] {
			t.Fatalf("heartbeats %+v: want one announcement of round 1 per peer", got)
		}
		to[m.To] = true
	}
	if len(to) != n-1 {
		t.Fatalf("round 1 announced to %d peers, want %d", len(to), n-1)
	}
	if sent := rt.Stats().HeartbeatsSent; sent != n-1 {
		t.Fatalf("HeartbeatsSent %d, want %d", sent, n-1)
	}
}

// TestTakeoverGuard drives tick by hand on member 7 of 10: a node that
// heartbeats only the line may not take over when the line goes
// silent, nor until it has heartbeated everyone for FailAfter. A node
// that never heartbeated only the line takes over at once.
func TestTakeoverGuard(t *testing.T) {
	const failAfter = time.Minute
	ids, snapshot := bootstrap(t, 10)
	t0 := time.Now()
	// Each runtime is unstarted and gets its own network, so the test
	// owns every input to tick, the time included: node 8 takes over at
	// epoch 1 below, and on a shared network its heartbeats or map would
	// reach node 7, whose epoch gossip would adopt epoch 1 before the
	// guard is checked.
	start := func(id delegate.NodeID) *Runtime {
		mn, err := NewMemNetwork(ChaosConfig{Seed: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		rt, err := newRuntime(Config{ID: id, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour, FailAfter: failAfter}, mn.Endpoint(id), t0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
		return rt
	}
	hear := func(rt *Runtime, heard bool) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		for i := range rt.lastSeen {
			rt.lastSeen[i] = -1
			if heard {
				rt.lastSeen[i] = 0 // at t0
			}
		}
	}

	fresh := start(8)
	fresh.tick(t0)
	if d := fresh.Delegate(); d != 8 {
		t.Fatalf("a node that heard nobody since Start elected %d, want itself", d)
	}

	rt := start(7)
	hear(rt, true)
	rt.tick(t0)
	rt.sendHeartbeats(rt.heartbeatTargets(t0))
	if d := rt.Delegate(); d != 0 || !rt.hbLineOnly {
		t.Fatalf("delegate %d, line only %v: want delegate 0 heard over the line", d, rt.hbLineOnly)
	}
	epoch := rt.Epoch()
	hold := func(when string, now time.Time) {
		t.Helper()
		rt.tick(now)
		if d, e := rt.Delegate(), rt.Epoch(); d != 0 || e != epoch {
			t.Fatalf("%s: delegate %d at epoch %d, want 0 held at epoch %d", when, d, e, epoch)
		}
	}
	hear(rt, false)
	hold("line silent, heartbeats still to the line", t0)
	rt.sendHeartbeats(rt.heartbeatTargets(t0))
	if rt.hbLineOnly || rt.hbAllSince.IsZero() {
		t.Fatal("heartbeats did not switch to everyone")
	}
	hold("heartbeating everyone for less than FailAfter", t0)
	hold("heartbeating everyone for just under FailAfter", t0.Add(failAfter-time.Nanosecond))
	rt.tick(t0.Add(failAfter))
	if d, e := rt.Delegate(), rt.Epoch(); d != 7 || e != epoch+1 {
		t.Fatalf("after FailAfter heartbeating everyone: delegate %d at epoch %d, want 7 at epoch %d", d, e, epoch+1)
	}
}

// startLineCluster starts n anu nodes on mn at the given cadence, with
// every other liveness knob at its default. A non-nil rng spreads the
// starts over a round each, so the nodes' timers run at independent
// phases as they would on separate machines.
func startLineCluster(t *testing.T, mn *MemNetwork, n int, round time.Duration, rng *rand.Rand) ([]*Runtime, Config) {
	t.Helper()
	ids, snapshot := bootstrap(t, n)
	speeds := make(map[delegate.NodeID]float64, n)
	for i, id := range ids {
		speeds[id] = 1 + float64(i%4)
	}
	base := Config{
		Members:       ids,
		Snapshot:      snapshot,
		Controller:    anu.DefaultControllerConfig(),
		RoundInterval: round,
		Observe:       closedLoopObserve(speeds),
	}
	rts := make([]*Runtime, n)
	t.Cleanup(func() {
		for _, rt := range rts {
			if rt != nil {
				rt.Stop()
			}
		}
	})
	for i, id := range ids {
		if rng != nil {
			time.Sleep(time.Duration(rng.Int64N(int64(round))))
		}
		cfg := base
		cfg.ID = id
		rt, err := Start(cfg, mn.Endpoint(id))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	return rts, base
}

// TestLineTakeoverGuard stops the whole delegate line (ids 0..k-1) at
// once, with the default WatchdogRounds and FailAfter. The survivors
// outside the line heard only the line, so each briefly sees itself as
// the lowest live id; the takeover guard must hold them until they hear
// each other. Every seed must end with id k as delegate everywhere, id
// k must be the only survivor that tunes, and no (epoch, round) may
// ever carry two maps.
func TestLineTakeoverGuard(t *testing.T) {
	const n = 12
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mn, err := NewMemNetwork(ChaosConfig{Drop: 0.02, MaxDelay: 5 * time.Millisecond, Seed: seed}, 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer mn.Close()
			rts, _ := startLineCluster(t, mn, n, 100*time.Millisecond, rand.New(rand.NewPCG(seed, 0)))
			waitFor(t, 20*time.Second, "every node on delegate 0 with two installs", func() bool {
				for _, rt := range rts {
					if rt.Delegate() != 0 || rt.Stats().MapRound < 2 {
						return false
					}
				}
				return true
			})
			// Past start-up, a node outside the line no longer hears the
			// other nodes outside it.
			waitFor(t, 5*time.Second, "views narrowed to the line", func() bool {
				for _, rt := range rts[lineSize+1:] {
					if slices.Contains(rt.Stats().Live, rt.ID()-1) {
						return false
					}
				}
				return true
			})
			tunes := make([]uint64, n)
			for i, rt := range rts {
				tunes[i] = rt.Stats().Tunes
			}
			cm := startCoherenceMonitor(rts, 2*time.Millisecond)
			var wg sync.WaitGroup
			for _, rt := range rts[:lineSize] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rt.Stop()
				}()
			}
			wg.Wait()
			survivors := rts[lineSize:]
			successor := delegate.NodeID(lineSize)
			waitFor(t, 20*time.Second, fmt.Sprintf("delegate %d everywhere on one map", successor), func() bool {
				for _, rt := range survivors {
					if rt.Delegate() != successor {
						return false
					}
				}
				return converged(survivors)
			})
			settled := rts[lineSize].Stats().MapRound
			waitFor(t, 20*time.Second, "three more rounds under the successor", func() bool {
				for _, rt := range survivors {
					if rt.Stats().MapRound < settled+3 {
						return false
					}
				}
				return true
			})
			_, violations := cm.finish()
			for _, v := range violations {
				t.Errorf("coherence violation: %s", v)
			}
			for i, rt := range rts {
				if d := rt.Delegate(); i >= lineSize && d != successor {
					t.Errorf("node %d ended on delegate %d, want %d", rt.ID(), d, successor)
				}
				if got := rt.Stats().Tunes - tunes[i]; i > lineSize && got != 0 {
					t.Errorf("node %d took over and tuned %d rounds", rt.ID(), got)
				}
			}
		})
	}
}

// TestDelegateFailsSilentFollower stops a follower outside the line,
// which heartbeats only the line: the delegate must still see it go
// silent and fail it within FailAfter plus two rounds, and must admit
// it again in the first map after it restarts and reports, with at
// least half an equal share rather than the controller's floor.
func TestDelegateFailsSilentFollower(t *testing.T) {
	const (
		n     = 8
		round = 100 * time.Millisecond
	)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 13}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	rts, base := startLineCluster(t, mn, n, round, nil)
	del := rts[0]
	waitFor(t, 20*time.Second, "two installs everywhere", func() bool {
		for _, rt := range rts {
			if rt.Delegate() != 0 || rt.Stats().MapRound < 2 {
				return false
			}
		}
		return true
	})
	const quiet = n - 2
	victim := rts[quiet]
	waitFor(t, 5*time.Second, fmt.Sprintf("node %d hearing only the line", quiet), func() bool {
		return slices.Equal(victim.Stats().Live, []delegate.NodeID{0, 1, 2, quiet})
	})
	if del.Placement().Shares()[quiet] == 0 {
		t.Fatalf("node %d holds no share before it stops", quiet)
	}

	victim.Stop()
	stopped := time.Now()
	cfg, _ := base.withDefaults()
	bound := cfg.FailAfter + 2*round
	waitFor(t, 10*time.Second, fmt.Sprintf("delegate fails node %d", quiet), func() bool {
		return del.Placement().Shares()[quiet] == 0
	})
	if took := time.Since(stopped); took > bound {
		t.Errorf("delegate failed node %d after %v, want within FailAfter+2 rounds = %v", quiet, took, bound)
	}

	cfg = base
	cfg.ID = quiet
	back, err := Start(cfg, mn.Endpoint(quiet))
	if err != nil {
		t.Fatal(err)
	}
	rts[quiet] = back
	waitFor(t, 10*time.Second, "the restarted node's first report", func() bool {
		return back.Stats().ReportsSent > 0
	})
	next := del.Stats().MapRound + 1
	waitFor(t, 10*time.Second, "the next map", func() bool { return del.Stats().MapRound >= next })
	if share := del.Placement().Shares()[quiet]; share < 1/(2.0*n) {
		t.Errorf("map round %d gives restarted node %d share %g, want at least 1/(2n) = %g", del.Stats().MapRound, quiet, share, 1/(2.0*n))
	}
}

// TestInstallLatencyTimesSeenRounds sends member 1 a map for a round it
// has not seen open, then announces the next round and sends its map.
// Only the second install is timed: the first has no round start of
// its own to measure from.
func TestInstallLatencyTimesSeenRounds(t *testing.T) {
	ids, snapshot := bootstrap(t, 2)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	rt, err := Start(Config{ID: 1, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour}, mn.Endpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	del := mn.Endpoint(0)
	send := func(kind delegate.MsgKind, round uint64, payload []byte) {
		t.Helper()
		if !del.SendAsync(delegate.Message{Kind: kind, From: 0, To: 1, Epoch: 1, Round: round, Payload: payload}) {
			t.Fatal("SendAsync refused")
		}
	}
	installs := func(want uint64) {
		t.Helper()
		waitFor(t, 5*time.Second, fmt.Sprintf("%d installs", want), func() bool { return rt.Stats().MapsInstalled == want })
	}
	send(delegate.MsgMap, 5, snapshot)
	installs(1)
	if got := rt.Stats().InstallLatencyHist.Total(); got != 0 {
		t.Fatalf("a map for an unseen round was timed: %d samples", got)
	}
	send(MsgHeartbeat, 6, nil)
	send(delegate.MsgMap, 6, snapshot)
	installs(2)
	if got := rt.Stats().InstallLatencyHist.Total(); got != 1 {
		t.Fatalf("%d install samples after a map for an announced round, want 1", got)
	}
}
