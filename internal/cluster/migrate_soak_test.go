package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

// TestMigrationChaosSoak is the acceptance soak for live strategy
// migration: five nodes on a lossy, reordering network with chaos
// journals, driven through migrations with a fault at each step:
//
//   - the delegate crash-restarts right after Migrate — the target dies
//     with it, or its window map is out and it continues the window
//     from its journal; either way the cluster settles on one strategy;
//   - the delegate is killed inside the window — the successor holds
//     the window in its map and continues it, and the restarted
//     ex-delegate rejoins inside it;
//   - a follower crash-restarts inside the window with its journal tail
//     damaged — whatever record survived, the window's maps or the
//     plain map that closes it bring it onto the new strategy;
//   - a follower that already cut over crash-restarts — its journal,
//     not its (stale) config, decides what it boots;
//   - and a migration back under a transient partition (drop rate
//     spiked mid-cutover), which must end with every node on one
//     coherent strategy, whichever way it resolves.
//
// Throughout, lookup hammers on every node assert the zero-downtime
// contract: every lookup at every instant resolves to a valid server
// from exactly one coherent placement (old or new, never mixed).
func TestMigrationChaosSoak(t *testing.T) {
	const n = 5
	calm := ChaosConfig{Drop: 0.10, Duplicate: 0.05, MaxDelay: 5 * time.Millisecond, Seed: 1009}
	cn, err := NewMemNetwork(calm, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, n)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
	dir := t.TempDir()

	journals := make([]*journal.ChaosJournal, n)
	openJournal := func(i int) {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = journal.NewChaos(j, 100+uint64(i))
	}
	rts := make([]*Runtime, n)
	startNode := func(i int) {
		// A 3 s window (60 rounds) outlasts every outage below, so no
		// node is down for a whole window.
		rt, err := Start(Config{
			ID: ids[i], Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 50 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond, FailAfter: 500 * time.Millisecond,
			WatchdogRounds: 600, MigrateTimeout: 3 * time.Second,
			Observe: closedLoopObserve(speeds), Journal: journals[i], Logf: t.Logf,
		}, cn.Endpoint(ids[i]))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		rts[i] = rt
	}
	// crashRestart kills node i, optionally damages its journal tail the
	// way a power cut would, and boots a fresh runtime from what
	// survived on disk.
	crashRestart := func(i int, damageTail bool) {
		rts[i].Stop()
		if damageTail {
			if kind, ok, err := journals[i].InjectTailFault(); err != nil {
				t.Fatalf("node %d: tail fault: %v", i, err)
			} else if ok {
				t.Logf("soak: node %d journal tail damaged (%s)", i, kind)
			}
		}
		if err := journals[i].Close(); err != nil {
			t.Fatalf("node %d: close journal: %v", i, err)
		}
		openJournal(i)
		startNode(i)
	}
	// migrateFromDelegate drives Migrate on whichever node currently
	// leads, retrying through transient refusals (a window still open,
	// elections settling).
	migrateFromDelegate := func(target string) {
		t.Helper()
		waitFor(t, 30*time.Second, fmt.Sprintf("a delegate accepting Migrate(%s)", target), func() bool {
			for _, rt := range rts {
				if rt.Delegate() != rt.ID() {
					continue
				}
				if err := rt.Migrate(target); err == nil {
					return true
				}
			}
			return false
		})
	}
	allOn := func(tag string) func() bool {
		return func() bool { return settledOn(rts, tag) }
	}

	for i := range ids {
		openJournal(i)
		startNode(i)
	}
	defer func() {
		for i := range rts {
			rts[i].Stop()
			journals[i].Close()
		}
	}()
	waitFor(t, 30*time.Second, "initial convergence", func() bool {
		return converged(rts) && rts[0].Stats().Tunes >= 1
	})

	hammer := startLookupHammer(rts, n, placement.StrategyANU, placement.StrategyChordBounded)

	// settle waits until every node in rts serves one strategy, anu or
	// chord-bounded, with no window open, and converges; it returns
	// that strategy.
	settle := func(what string, rts []*Runtime) string {
		t.Helper()
		var settled string
		waitFor(t, 30*time.Second, what, func() bool {
			hammer.check(t)
			for _, tag := range []string{placement.StrategyANU, placement.StrategyChordBounded} {
				if settledOn(rts, tag) && converged(rts) {
					settled = tag
					return true
				}
			}
			return false
		})
		return settled
	}
	// toANU migrates the cluster back to anu if it is not there.
	toANU := func() {
		if !allOn(placement.StrategyANU)() {
			migrateFromDelegate(placement.StrategyANU)
			waitFor(t, 30*time.Second, "back on anu", allOn(placement.StrategyANU))
		}
	}

	// ---- Fault at the hand-off: the delegate crash-restarts right after
	// Migrate. Its target dies with it, or its window map is out and its
	// journal carries the window on.
	del := waitDelegate(t, rts)
	if err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	crashRestart(int(del.ID()), false)
	t.Logf("soak: after the hand-off crash the cluster settled on %q", settle("settle after the hand-off crash", rts))

	// ---- Fault inside the window at the delegate: kill it once every
	// node holds the window. The successor continues the window; the
	// ex-delegate restarts from its window map while it is still open.
	toANU()
	migrateFromDelegate(placement.StrategyChordBounded)
	waitFor(t, 30*time.Second, "every node inside the window", func() bool {
		hammer.check(t)
		for _, rt := range rts {
			if !rt.Stats().Window.IsOpen() {
				return false
			}
		}
		return true
	})
	del = waitDelegate(t, rts)
	leader := int(del.ID())
	del.Stop()
	survivors := append(append([]*Runtime(nil), rts[:leader]...), rts[leader+1:]...)
	waitFor(t, 30*time.Second, "a successor tuning inside the window", func() bool {
		hammer.check(t)
		for _, rt := range survivors {
			if rt.Delegate() == rt.ID() && rt.Stats().Tunes > 0 && rt.Stats().Window.IsOpen() {
				return true
			}
		}
		return false
	})
	crashRestart(leader, false)
	if got := settle("settle after the delegate died inside the window", rts); got != placement.StrategyChordBounded {
		t.Fatalf("the cluster settled on %q after its delegate died inside the window, want %q", got, placement.StrategyChordBounded)
	}

	// ---- Fault inside the window at a follower: crash-restart it inside
	// the window, with its journal tail torn.
	victim := n - 1 // highest id: never the delegate while anyone else lives
	toANU()
	migrateFromDelegate(placement.StrategyChordBounded)
	waitFor(t, 30*time.Second, "follower inside the window", func() bool {
		hammer.check(t)
		return rts[victim].Stats().Window.IsOpen()
	})
	crashRestart(victim, true)
	// Whatever the torn tail left behind — the window map, or an older
	// anu map — the window's maps or the plain map must flip it.
	waitFor(t, 45*time.Second, "cutover heals the window crash victim", allOn(placement.StrategyChordBounded))
	waitFor(t, 30*time.Second, "reconvergence on the new strategy", func() bool {
		hammer.check(t)
		return converged(rts)
	})
	if lookups := hammer.close(t); lookups == 0 {
		t.Fatal("lookup hammer never ran")
	}

	// ---- After the cutover: a node that already flipped crash-restarts.
	// Its config still says "anu"; its journal must win.
	witness := (victim + 1) % n
	if rts[witness].Delegate() == rts[witness].ID() {
		witness = (witness + 1) % n
	}
	crashRestart(witness, false)
	if got := rts[witness].Stats().Strategy; got != placement.StrategyChordBounded {
		t.Fatalf("restarted node %d booted %q; its journal records the %q cutover",
			witness, got, placement.StrategyChordBounded)
	}
	hammer = startLookupHammer(rts, n, placement.StrategyANU, placement.StrategyChordBounded)
	waitFor(t, 30*time.Second, "committed-crash witness rejoined", func() bool {
		hammer.check(t)
		return converged(rts)
	})

	// ---- Migration back under a transient partition: spike the drop
	// rate mid-cutover, then calm the network and require the cluster to
	// settle on exactly one strategy — retrying until it lands on ANU.
	migrateFromDelegate(placement.StrategyANU)
	if err := cn.SetConfig(ChaosConfig{Drop: 0.60, Duplicate: 0.05, MaxDelay: 10 * time.Millisecond, Seed: 2027}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cn.SetConfig(calm); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "uniform strategy after the partition", func() bool {
		hammer.check(t)
		if allOn(placement.StrategyANU)() {
			return true
		}
		// The partition may have lost the attempt (the delegate changed
		// before its tune, or a successor without the window map took
		// over); that is a legal outcome — roll it forward by migrating
		// again.
		if allOn(placement.StrategyChordBounded)() {
			for _, rt := range rts {
				if rt.Delegate() == rt.ID() {
					rt.Migrate(placement.StrategyANU)
					break
				}
			}
		}
		return false
	})
	waitFor(t, 30*time.Second, "final convergence", func() bool {
		hammer.check(t)
		return converged(rts)
	})
	if lookups := hammer.close(t); lookups == 0 {
		t.Fatal("lookup hammer never ran")
	}

	// Every journal must be coherent with the final state: the newest
	// record decodes, carries the final strategy and holds no window.
	for i := range rts {
		rts[i].Stop()
		prec, ok := journals[i].LastPlacement()
		if !ok {
			t.Errorf("node %d: no journaled placement after the soak", i)
			continue
		}
		dec, w, err := placement.DecodeAfter(prec.Map, placement.Options{}, nil)
		if err != nil {
			t.Errorf("node %d: final journaled placement undecodable: %v", i, err)
		} else if dec.Name() != placement.StrategyANU || w.IsOpen() {
			t.Errorf("node %d: final journaled placement %q with window %+v, want plain %q", i, dec.Name(), w, placement.StrategyANU)
		}
		s := rts[i].Stats()
		t.Logf("soak: node %d final stats: %s", i, s)
	}
}
