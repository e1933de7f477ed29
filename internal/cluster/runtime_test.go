package cluster

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
	"anurand/internal/placement"
)

// bootstrap builds the shared initial ANU map all members start from.
func bootstrap(t testing.TB, k int) ([]delegate.NodeID, []byte) {
	t.Helper()
	ids := make([]delegate.NodeID, k)
	for i := range ids {
		ids[i] = delegate.NodeID(i)
	}
	m, err := anu.New(hashx.NewFamily(42), ids)
	if err != nil {
		t.Fatal(err)
	}
	return ids, m.Encode()
}

// bootstrapStrategy is bootstrap for an arbitrary registered strategy.
func bootstrapStrategy(t testing.TB, k int, strategy string) ([]delegate.NodeID, []byte) {
	t.Helper()
	ids := make([]delegate.NodeID, k)
	for i := range ids {
		ids[i] = delegate.NodeID(i)
	}
	s, err := placement.New(strategy, ids, placement.Options{HashSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ids, s.Encode()
}

// closedLoopObserve models the paper's cluster: latency grows with the
// node's key-space share divided by its speed. Shares() makes it
// strategy-agnostic, so the same closed loop drives ANU and ring soaks.
func closedLoopObserve(speeds map[delegate.NodeID]float64) ObserveFunc {
	return func(s placement.Strategy, id delegate.NodeID) (uint64, float64) {
		share := s.Shares()[id]
		return uint64(1 + 1000*share), 0.002 + share/speeds[id]
	}
}

// converged reports whether every runtime holds a byte-identical map
// from the same round (and has installed at least one).
func converged(rts []*Runtime) bool {
	if len(rts) == 0 {
		return true
	}
	fp, mr := rts[0].Fingerprint(), rts[0].MapRound()
	if mr == 0 {
		return false
	}
	for _, rt := range rts[1:] {
		if rt.Fingerprint() != fp || rt.MapRound() != mr {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func TestStartValidation(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	bad := []Config{
		{ID: 0, Snapshot: snapshot, RoundInterval: time.Second},                     // no members
		{ID: 9, Members: ids, Snapshot: snapshot, RoundInterval: time.Second},       // not a member
		{ID: 0, Members: ids, Snapshot: snapshot},                                   // no cadence
		{ID: 0, Members: ids, Snapshot: []byte("junk"), RoundInterval: time.Second}, // bad snapshot
	}
	for i, cfg := range bad {
		cfg.Controller = anu.DefaultControllerConfig()
		if _, err := Start(cfg, cn.Endpoint(delegate.NodeID(50+i))); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRuntimeConvergesOverTCP(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	book := NewAddressBook()
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		tr, err := ListenTCP(id, book, loopback)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Start(Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: 40 * time.Millisecond,
			Observe:       closedLoopObserve(speeds),
			Logf:          t.Logf,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	waitFor(t, 15*time.Second, "TCP cluster convergence", func() bool {
		return converged(rts) && rts[0].Stats().Tunes >= 3
	})
	for _, rt := range rts {
		s := rt.Stats()
		if s.Delegate != 0 {
			t.Errorf("node %d sees delegate %d, want 0", s.ID, s.Delegate)
		}
		if len(s.Live) != 3 {
			t.Errorf("node %d live view %v, want all 3", s.ID, s.Live)
		}
	}
	// The delegate's tunes saw reports beyond its own sample.
	if s := rts[0].Stats(); s.ReportsPerTune.Max() < 2 {
		t.Errorf("delegate tuned only on its own sample: %s", s.ReportsPerTune.String())
	}
}

// TestChaosSoakConvergence is the acceptance soak: a 5-node cluster on
// a lossy, duplicating, reordering transport, with the delegate
// crashed mid-run. All live nodes must converge to byte-identical
// fingerprints, the installed map round must never move backwards on
// any node, and an injected stale-round map must be rejected.
func TestChaosSoakConvergence(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{
		Drop:      0.15,
		Duplicate: 0.15,
		MinDelay:  0,
		MaxDelay:  25 * time.Millisecond,
		Seed:      7,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 5)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		rt, err := Start(Config{
			ID:                id,
			Members:           ids,
			Snapshot:          snapshot,
			Controller:        anu.DefaultControllerConfig(),
			RoundInterval:     50 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			FailAfter:         150 * time.Millisecond,
			ReportGrace:       30 * time.Millisecond,
			Observe:           closedLoopObserve(speeds),
		}, cn.Endpoint(id))
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()

	// Monitor: installed map rounds are monotonic on every node for the
	// whole soak — a stale map is provably never installed over a newer
	// one.
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		last := make([]uint64, len(rts))
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(5 * time.Millisecond):
			}
			for i, rt := range rts {
				if mr := rt.MapRound(); mr < last[i] {
					t.Errorf("node %d installed map round regressed %d -> %d", i, last[i], mr)
				} else {
					last[i] = mr
				}
			}
		}
	}()

	time.Sleep(1200 * time.Millisecond) // chaotic steady state under node 0

	rts[0].Stop() // kill the delegate mid-run

	time.Sleep(1200 * time.Millisecond) // re-election and recovery, still under chaos

	// Calm the network (tiny jitter only) and require convergence of the
	// survivors under the successor delegate.
	if err := cn.SetConfig(ChaosConfig{MaxDelay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	live := rts[1:]
	waitFor(t, 20*time.Second, "survivor convergence after delegate crash", func() bool {
		if !converged(live) {
			return false
		}
		for _, rt := range live {
			if rt.Delegate() != 1 {
				return false
			}
		}
		return true
	})

	// The crashed node's region was released to the survivors.
	m := live[0].Map()
	if l := m.Length(0); l != 0 {
		t.Errorf("crashed node still owns %d ticks", l)
	}

	// Someone observed the re-election.
	var reelections uint64
	for _, rt := range live {
		reelections += rt.Stats().Reelections
	}
	if reelections == 0 {
		t.Error("no node observed a re-election after the delegate crash")
	}

	// Inject a stale-round map: it must be counted and rejected.
	target := live[2]
	beforeStale := target.Stats().StaleMapsRejected
	beforeRound := target.MapRound()
	if beforeRound <= 1 {
		t.Fatalf("soak ended at map round %d; cannot form a stale round", beforeRound)
	}
	inj := cn.Endpoint(99)
	if !inj.SendAsync(delegate.Message{
		Kind:    delegate.MsgMap,
		From:    4,
		To:      target.ID(),
		Epoch:   target.MapEpoch(), // same epoch: exercises the round guard
		Round:   1,
		Payload: snapshot,
	}) {
		t.Fatal("stale-round injection refused")
	}
	waitFor(t, 5*time.Second, "stale map rejection", func() bool {
		return target.Stats().StaleMapsRejected > beforeStale
	})
	if mr := target.MapRound(); mr < beforeRound {
		t.Errorf("stale injection moved map round %d -> %d", beforeRound, mr)
	}

	// And a stale-epoch map with a racing round number: the epoch fence
	// must reject it even though its round is far ahead.
	beforeEpochStale := target.Stats().StaleEpochsRejected
	fenceEpoch, fenceRound := target.MapEpoch(), target.MapRound()
	if fenceEpoch == 0 {
		t.Fatalf("soak ended at map epoch 0; cannot form a stale epoch")
	}
	if !inj.SendAsync(delegate.Message{
		Kind:    delegate.MsgMap,
		From:    4,
		To:      target.ID(),
		Epoch:   fenceEpoch - 1,
		Round:   fenceRound + 1000,
		Payload: snapshot,
	}) {
		t.Fatal("stale-epoch injection refused")
	}
	waitFor(t, 5*time.Second, "stale epoch rejection", func() bool {
		return target.Stats().StaleEpochsRejected > beforeEpochStale
	})
	if me, mr := target.MapEpoch(), target.MapRound(); me < fenceEpoch || (me == fenceEpoch && mr < fenceRound) {
		t.Errorf("stale-epoch injection moved fence (%d,%d) -> (%d,%d)", fenceEpoch, fenceRound, me, mr)
	}

	close(stopMon)
	<-monDone

	if fp := cn.Stats(); fp.Dropped == 0 || fp.Duplicated == 0 {
		t.Errorf("chaos implausible: %+v", fp)
	}

	// Surface each node's latency tails so soak logs show distributions,
	// not just counters.
	for _, rt := range rts {
		t.Logf("soak summary: %s", rt.Stats())
	}
}

// filterTransport drops outbound messages matching a predicate —
// the asymmetric-partition tool for watchdog tests.
type filterTransport struct {
	Transport
	drop func(delegate.Message) bool
}

func (f filterTransport) SendAsync(msg delegate.Message) bool {
	if f.drop(msg) {
		return true
	}
	return f.Transport.SendAsync(msg)
}

// TestWatchdogReelection covers the failure mode heartbeats cannot
// see: the delegate is alive and beaconing, but its placement maps
// never arrive. The round watchdog must suspect it and move election
// to the next id, which then actually tunes.
func TestWatchdogReelection(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		var tr Transport = cn.Endpoint(id)
		if id == 0 {
			// Node 0 heartbeats fine but its maps vanish.
			tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
				return m.Kind == delegate.MsgMap
			}}
		}
		rt, err := Start(Config{
			ID:             id,
			Members:        ids,
			Snapshot:       snapshot,
			Controller:     anu.DefaultControllerConfig(),
			RoundInterval:  40 * time.Millisecond,
			WatchdogRounds: 2,
			Observe:        closedLoopObserve(speeds),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	waitFor(t, 15*time.Second, "watchdog re-election past a silent delegate", func() bool {
		trips := rts[1].Stats().WatchdogTrips + rts[2].Stats().WatchdogTrips
		return trips >= 1 && rts[1].Stats().Tunes >= 1 && rts[2].Stats().MapsInstalled >= 1
	})
}

// TestRuntimeLookupDataPlane exercises the lock-free read path on the
// ANU and chord-bounded strategies: request routing via Lookup,
// LookupDigest and LookupBatch, and Shares on the published placement
// itself, must stay valid and uninterrupted while the protocol installs
// new placements underneath it. The runtime publishes the node's
// placement without a copy, which is safe only because the node never
// mutates a placement once set: under -race a round that tuned the
// published instance in place is a data race, and each reader also
// checks that the first instance it took still encodes as it did.
func TestRuntimeLookupDataPlane(t *testing.T) {
	for _, strategy := range []string{placement.StrategyANU, placement.StrategyChordBounded} {
		t.Run(strategy, func(t *testing.T) {
			cn, err := NewMemNetwork(ChaosConfig{Seed: 11}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			ids, snapshot := bootstrapStrategy(t, 3, strategy)
			speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
			rts := make([]*Runtime, 0, len(ids))
			for _, id := range ids {
				rt, err := Start(Config{
					ID:            id,
					Members:       ids,
					Snapshot:      snapshot,
					Strategy:      strategy,
					Controller:    anu.DefaultControllerConfig(),
					RoundInterval: 30 * time.Millisecond,
					Observe:       closedLoopObserve(speeds),
				}, cn.Endpoint(id))
				if err != nil {
					t.Fatal(err)
				}
				rts = append(rts, rt)
			}
			defer func() {
				for _, rt := range rts {
					rt.Stop()
				}
			}()

			// Reader goroutine per node: route continuously during tuning.
			stop := make(chan struct{})
			errs := make(chan error, len(rts))
			var wg sync.WaitGroup
			for i, rt := range rts {
				wg.Add(1)
				go func(i int, rt *Runtime) {
					defer wg.Done()
					keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
					owners := make([]anu.ServerID, len(keys))
					var held placement.Strategy // the first published instance seen
					var heldEnc []byte
					for n := 0; ; n++ {
						select {
						case <-stop:
							if !bytes.Equal(held.Encode(), heldEnc) {
								errs <- fmt.Errorf("node %d: a published placement changed after publication", i)
							}
							return
						default:
						}
						s := *rt.placement.Load()
						if held == nil {
							held, heldEnc = s, s.Encode()
						}
						total := 0.0
						for _, share := range s.Shares() {
							total += share
						}
						if math.Abs(total-1) > 1e-9 {
							errs <- fmt.Errorf("node %d: published shares sum to %g", i, total)
							return
						}
						key := keys[n%len(keys)]
						owner, ok := rt.Lookup(key)
						if !ok || owner < 0 || int(owner) >= len(rts) {
							errs <- fmt.Errorf("node %d: Lookup(%q) = (%d, %v)", i, key, owner, ok)
							return
						}
						// A placement may install between the two loads, so only
						// validity is asserted here; digest/string agreement on a
						// single snapshot is checked after convergence below.
						if d, ok := rt.LookupDigest(hashx.Prehash(key)); !ok || d < 0 || int(d) >= len(rts) {
							errs <- fmt.Errorf("node %d: LookupDigest(%q) = (%d, %v)", i, key, d, ok)
							return
						}
						if got := rt.LookupBatch(keys, owners); got != len(keys) {
							errs <- fmt.Errorf("node %d: batch resolved %d/%d", i, got, len(keys))
							return
						}
					}
				}(i, rt)
			}

			// Let several placements install while the readers run.
			waitFor(t, 15*time.Second, "tuned placements under live lookups", func() bool {
				select {
				case err := <-errs:
					t.Fatal(err)
				default:
				}
				return converged(rts) && rts[0].Stats().Tunes >= 3
			})
			close(stop)
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			// Freeze the protocol, then check the data plane serves exactly the
			// installed placement: every node routes each key to the owner the
			// full Placement() copy names, via both the string and digest paths.
			for _, rt := range rts {
				rt.Stop()
			}
			for i, rt := range rts {
				s := rt.Placement()
				for _, key := range []string{"/home/alice", "/srv/data"} {
					want, _ := placement.Lookup(s, key)
					if got, ok := rt.Lookup(key); !ok || got != want {
						t.Errorf("node %d: data plane routes %q to %d, installed placement says %d", i, key, got, want)
					}
					if got, ok := rt.LookupDigest(hashx.Prehash(key)); !ok || got != want {
						t.Errorf("node %d: digest path routes %q to %d, installed placement says %d", i, key, got, want)
					}
				}
			}
		})
	}
}

// TestMalformedReportCostsNoMap is the regression test for the
// runtime's message path: a malformed report handled just before a
// valid map for the same round must not cost the node that map.
func TestMalformedReportCostsNoMap(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	rt, err := Start(Config{ID: 1, Members: ids, Snapshot: snapshot, RoundInterval: time.Hour, Logf: t.Logf}, mn.Endpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, err := placement.Decode(snapshot, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	next := s.Encode()
	before := rt.Stats().MapsInstalled
	rt.handle(delegate.Message{Kind: MsgHeartbeat, From: 0, To: 1, Epoch: 1, Round: 5})
	rt.handle(delegate.Message{Kind: delegate.MsgReport, From: 2, To: 1, Epoch: 1, Round: 5, Payload: []byte{1, 2, 3}})
	rt.handle(delegate.Message{Kind: delegate.MsgMap, From: 0, To: 1, Epoch: 1, Round: 5, Payload: next})
	if got := rt.Stats().MapsInstalled - before; got != 1 {
		t.Fatalf("%d maps installed behind a malformed report, want 1", got)
	}
	if fp := rt.Fingerprint(); fp != delegate.SnapshotFingerprint(next) {
		t.Fatalf("fingerprint %#x, want the map's %#x", fp, delegate.SnapshotFingerprint(next))
	}
}
