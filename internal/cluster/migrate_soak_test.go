package cluster

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/migrate"
	"anurand/internal/placement"
)

// TestMigrationChaosSoak is the acceptance soak for live strategy
// migration: five nodes on a lossy, reordering network with chaos
// journals, driven through a migration with a fault injected in every
// phase of the state machine:
//
//   - Proposed: the delegate is killed right after proposing — the
//     followers roll back on re-election, and the restarted ex-leader's
//     resumed phase self-aborts (no live proposer);
//   - DualTag: a follower crash-restarts inside the window with its
//     journal tail damaged — the cluster commits without it and the
//     leader's post-commit retry heals it onto the new strategy;
//   - Committed: a follower that already cut over crash-restarts — its
//     journal, not its (stale) config, decides what it boots;
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
	// While pinGate is set, no Commit order or placement map reaches the
	// pinned victim: it is held inside its dual-tag window so the crash
	// can be injected there deterministically instead of racing a
	// 20 ms poll against a sub-millisecond commit.
	var pinGate atomic.Bool
	pinned := ids[n-1] // highest id: never the delegate while anyone else lives
	rts := make([]*Runtime, n)
	startNode := func(i int) {
		var tr Transport = cn.Endpoint(ids[i])
		tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
			return pinGate.Load() && m.To == pinned &&
				(m.Kind == MsgMigrateCommit || m.Kind == delegate.MsgMap)
		}}
		// Quorum = n makes every commit wait for the pinned victim's
		// dual-tag ack, so the crash deterministically lands inside an
		// acknowledged window. WatchdogRounds is large because the pin
		// gate starves the victim of maps by design: a 500 ms watchdog
		// would re-elect on the victim and nack the very migration the
		// scenario is holding open (the watchdog has its own test).
		rt, err := Start(Config{
			ID: ids[i], Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 50 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond, FailAfter: 500 * time.Millisecond,
			WatchdogRounds: 600, Quorum: n,
			MigrateTimeout: 10 * time.Second, MigrateRetry: 100 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Journal: journals[i], Logf: t.Logf,
		}, tr)
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
	// leads, retrying through transient refusals (resumed phases still
	// draining, elections settling).
	migrateFromDelegate := func(target string) {
		t.Helper()
		waitFor(t, 30*time.Second, fmt.Sprintf("a delegate accepting Migrate(%s)", target), func() bool {
			for _, rt := range rts {
				if rt.Delegate() != rt.ID() {
					continue
				}
				if _, err := rt.Migrate(target); err == nil {
					return true
				}
			}
			return false
		})
	}
	allOn := func(tag string) func() bool {
		return func() bool {
			for _, rt := range rts {
				if rt.Strategy() != tag {
					return false
				}
				if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
					return false
				}
			}
			return true
		}
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

	// ---- Fault in Proposed: kill the delegate right after it proposes.
	del := waitDelegate(t, rts)
	leader := int(del.ID())
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	rts[leader].Stop()
	waitFor(t, 30*time.Second, "rollback after leader death in proposed", func() bool {
		hammer.check(t)
		for i, rt := range rts {
			if i == leader {
				continue
			}
			if rt.Strategy() != placement.StrategyANU {
				return false
			}
			if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
				return false
			}
		}
		return true
	})
	crashRestart(leader, false)
	// The restarted ex-leader resumes its journaled Proposed phase and,
	// once it sees a quorum view with itself elected, self-aborts.
	waitFor(t, 30*time.Second, "ex-leader drained its resumed phase", func() bool {
		hammer.check(t)
		phase, _ := rts[leader].MigrationPhase()
		return phase == migrate.Idle && rts[leader].Strategy() == placement.StrategyANU
	})

	// ---- Fault in DualTag: crash-restart a follower inside the window,
	// with its journal tail torn. The migration must still commit.
	victim := n - 1
	pinGate.Store(true)
	migrateFromDelegate(placement.StrategyChordBounded)
	waitFor(t, 30*time.Second, "pinned follower inside the dual-tag window", func() bool {
		hammer.check(t)
		phase, _ := rts[victim].MigrationPhase()
		return phase == migrate.DualTag
	})
	crashRestart(victim, true)
	pinGate.Store(false)
	// Whatever the torn tail left behind — a resumed window, a bare
	// placement, or nothing past an older record — the leader's
	// post-commit retries and the next broadcast map must flip it.
	waitFor(t, 45*time.Second, "cutover heals the dual-tag crash victim", allOn(placement.StrategyChordBounded))
	waitFor(t, 30*time.Second, "reconvergence on the new strategy", func() bool {
		hammer.check(t)
		return converged(rts)
	})
	if lookups := hammer.close(t); lookups == 0 {
		t.Fatal("lookup hammer never ran")
	}

	// ---- Fault in Committed: a node that already flipped crash-restarts.
	// Its config still says "anu"; its journal must win.
	witness := (victim + 1) % n
	if rts[witness].Delegate() == rts[witness].ID() {
		witness = (witness + 1) % n
	}
	crashRestart(witness, false)
	if got := rts[witness].Strategy(); got != placement.StrategyChordBounded {
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
		// The partition may have aborted the attempt; that is a legal
		// outcome — roll it forward by migrating again.
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
	// placement record decodes and carries the final strategy, and the
	// newest migration record is terminal.
	for i := range rts {
		rts[i].Stop()
		prec, ok := journals[i].LastPlacement()
		if !ok {
			t.Errorf("node %d: no journaled placement after the soak", i)
			continue
		}
		if tag, err := placement.Tag(prec.Map); err != nil || tag != placement.StrategyANU {
			t.Errorf("node %d: final journaled placement tag (%q, %v), want %q", i, tag, err, placement.StrategyANU)
		}
		if _, err := placement.Decode(prec.Map, placement.Options{}); err != nil {
			t.Errorf("node %d: final journaled placement undecodable: %v", i, err)
		}
		if mrec, ok := journals[i].LastMigration(); ok {
			if mr, err := migrate.Decode(mrec.Map); err != nil {
				t.Errorf("node %d: final journaled migration record undecodable: %v", i, err)
			} else if mr.Phase.InFlight() {
				t.Errorf("node %d: soak ended with an in-flight journaled migration (%s)", i, mr.Phase)
			}
		}
		s := rts[i].Stats()
		t.Logf("soak: node %d final stats: %s", i, s)
	}
}
