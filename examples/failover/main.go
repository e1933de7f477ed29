// Failover: live-migrate a serving cluster to a new placement
// strategy, crash a node inside the cutover window, and finish the
// migration from its journal.
//
// The example runs a five-node delegate cluster on a lossy in-memory
// network, with every node journaling installed placements AND
// migration phase records to disk. While client lookups hammer every
// node, the delegate drives a zero-downtime migration from the
// paper's ANU strategy to the bounded-load chord ring:
//
//	Idle -> Proposed -> DualTag -> Committed
//
// During the dual-tag window each node keeps serving lock-free
// lookups from the old ANU snapshot while the chord placement warms;
// the flip is one atomic snapshot publish fenced by an epoch bump.
// Mid-window, one follower is killed and restarted from its journal:
// the journaled DualTag record (with the warm snapshot) resumes the
// window, and the leader's post-commit retries finish the cutover —
// no lookup ever fails, and no node is left behind on the old
// strategy. The window closes only when every member acknowledged it
// (Quorum = 5), and until the crash the victim's transport loses its
// dual-tag acknowledgements, so the leader cannot commit and the crash
// lands inside the window however fast the other acks arrive.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/anu"
	"anurand/internal/cluster"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
	"anurand/internal/journal"
	"anurand/internal/migrate"
	"anurand/internal/placement"
)

func main() {
	log.SetFlags(0)

	ids := []delegate.NodeID{0, 1, 2, 3, 4}
	m, err := anu.New(hashx.NewFamily(42), ids)
	check(err)
	snapshot := m.Encode()
	speeds := map[delegate.NodeID]float64{0: 1, 1: 2, 2: 4, 3: 6, 4: 8}

	cn, err := cluster.NewMemNetwork(cluster.ChaosConfig{
		Drop:      0.05,
		Duplicate: 0.05,
		MaxDelay:  5 * time.Millisecond,
		Seed:      7,
	}, 0)
	check(err)
	defer cn.Close()

	dir, err := os.MkdirTemp("", "anurand-failover")
	check(err)
	defer os.RemoveAll(dir)

	journals := make([]*journal.Journal, len(ids))
	openJournal := func(i int) {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		check(err)
		journals[i] = j
	}
	start := func(i int, tr cluster.Transport) *cluster.Runtime {
		rt, err := cluster.Start(cluster.Config{
			ID:                ids[i],
			Members:           ids,
			Snapshot:          snapshot,
			Controller:        anu.DefaultControllerConfig(),
			RoundInterval:     40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond,
			FailAfter:         400 * time.Millisecond,
			WatchdogRounds:    10,
			Quorum:            len(ids), // the dual-tag window closes only when everyone acked
			MigrateTimeout:    20 * time.Second,
			MigrateRetry:      80 * time.Millisecond,
			Observe: func(p placement.Strategy, id delegate.NodeID) (uint64, float64) {
				share := p.Shares()[id]
				return uint64(1 + 1000*share), 0.002 + share/speeds[id]
			},
			Journal: journals[i],
		}, tr)
		check(err)
		return rt
	}

	victim := 3
	rts := make([]*cluster.Runtime, len(ids))
	for i := range ids {
		openJournal(i)
		var tr cluster.Transport = cn.Endpoint(ids[i])
		if i == victim {
			tr = holdDualTagAcks{cn.Endpoint(ids[i])}
		}
		rts[i] = start(i, tr)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
		for _, j := range journals {
			j.Close()
		}
	}()

	fmt.Printf("5 nodes tuning %q over a lossy network, journaling placements and migration phases\n\n", placement.StrategyANU)
	waitUntil("initial convergence", 20*time.Second, func() bool {
		return convergedAll(rts) && rts[2].MapRound() >= 4
	})
	s := rts[0].Stats()
	fmt.Printf("converged on %s at fence (epoch %d, round %d)\n", s.Strategy, s.MapEpoch, s.MapRound)

	// --- client lookups hammer every node for the whole cutover --------
	var lookups, failures atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *cluster.Runtime) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(500 * time.Microsecond)
				if _, ok := rt.Lookup(keys[n%len(keys)]); ok {
					lookups.Add(1)
				} else {
					failures.Add(1)
				}
			}
		}(rt)
	}

	// --- the delegate proposes the live cutover -------------------------
	epochBefore := rts[0].MapEpoch()
	migID, err := rts[0].Migrate(placement.StrategyChordBounded)
	check(err)
	fmt.Printf("\ndelegate proposed migration %d: %s -> %s\n", migID, placement.StrategyANU, placement.StrategyChordBounded)

	// --- crash a follower inside the dual-tag window --------------------
	waitUntil("victim inside the dual-tag window", 20*time.Second, func() bool {
		phase, _ := rts[victim].MigrationPhase()
		return phase == migrate.DualTag
	})
	rts[victim].Stop()
	check(journals[victim].Close())
	fmt.Printf("node %d killed inside the dual-tag window (old strategy still serving everywhere)\n", victim)

	// --- restart it from the journal ------------------------------------
	openJournal(victim)
	if rec, ok := journals[victim].LastMigration(); ok {
		mr, err := migrate.Decode(rec.Map)
		check(err)
		fmt.Printf("reopened journal: migration record %s (id %d, warm snapshot %d bytes)\n",
			mr.Phase, mr.ID, len(mr.Snapshot))
	}
	rts[victim] = start(victim, cn.Endpoint(ids[victim]))
	if phase, id := rts[victim].MigrationPhase(); phase == migrate.DualTag {
		fmt.Printf("node %d restarted: resumed migration %d in %s — window reopened from disk\n", victim, id, phase)
	} else {
		fmt.Printf("node %d restarted in %s; the leader's commit retries will catch it up\n", victim, phase)
	}

	// --- the cutover completes everywhere -------------------------------
	waitUntil("cluster-wide cutover", 30*time.Second, func() bool {
		for _, rt := range rts {
			if rt.Strategy() != placement.StrategyChordBounded {
				return false
			}
			if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
				return false
			}
		}
		return true
	})
	fmt.Printf("\nevery node now serves %q; commit bumped the install epoch %d -> %d\n",
		placement.StrategyChordBounded, epochBefore, rts[0].MapEpoch())

	waitUntil("reconvergence on the new strategy", 20*time.Second, func() bool {
		if !convergedAll(rts) {
			return false
		}
		// Let the post-commit gossip settle so the per-node stats below
		// show the cluster at rest: everyone back behind delegate 0 with
		// the migrating bit cleared.
		for _, rt := range rts {
			s := rt.Stats()
			if s.Delegate != 0 || s.DelegateMigrating {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()
	fmt.Printf("client lookups during the whole cutover: %d served, %d failed\n", lookups.Load(), failures.Load())
	if failures.Load() != 0 {
		log.Fatal("the zero-downtime contract was violated")
	}

	fmt.Printf("\ncluster reconverged; per-node view:\n")
	for _, rt := range rts {
		fmt.Printf("  %s\n", rt.Stats())
	}
}

// holdDualTagAcks is the victim's transport until it crashes: it loses
// the victim's acknowledgements of the dual-tag phase, as a lossy
// network may, so the leader's commit waits for the restarted node.
type holdDualTagAcks struct{ *cluster.MemEndpoint }

func (h holdDualTagAcks) SendAsync(msg delegate.Message) bool {
	if msg.Kind == cluster.MsgMigrateAck {
		if rec, err := migrate.Decode(msg.Payload); err == nil && rec.Phase == migrate.DualTag {
			return true // accepted, then lost
		}
	}
	return h.MemEndpoint.SendAsync(msg)
}

func convergedAll(rts []*cluster.Runtime) bool {
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

func waitUntil(what string, d time.Duration, cond func() bool) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
