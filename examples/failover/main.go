// Failover: live-migrate a serving cluster to a new placement
// strategy, crash a node inside the migration window, and finish the
// migration from its journal.
//
// The example runs a five-node delegate cluster on a lossy in-memory
// network, with every node journaling its installed placement maps to
// disk. While client lookups hammer every node, the delegate migrates
// from the paper's ANU strategy to the bounded-load chord ring as an
// ordinary map round: its next map serves the chord ring inside a
// migration window that also names ANU, so every node still on ANU
// installs it through the usual (epoch, round) fence, one atomic
// snapshot publish per node. For MigrateTimeout the delegate keeps the
// window on its maps, then sends the plain chord map, which closes it.
// Inside the window one follower is killed and restarted from its
// journal: the newest journaled map is the window map, so the node
// boots the chord ring inside the window, although its config still
// names ANU, and installs the plain map that closes the window — no
// lookup ever fails, and no node is left behind on the old strategy.
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
	start := func(i int) *cluster.Runtime {
		rt, err := cluster.Start(cluster.Config{
			ID:                ids[i],
			Members:           ids,
			Snapshot:          snapshot,
			Controller:        anu.DefaultControllerConfig(),
			RoundInterval:     40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond,
			FailAfter:         400 * time.Millisecond,
			WatchdogRounds:    10,
			MigrateTimeout:    time.Second, // a 25-round window
			Observe: func(p placement.Strategy, id delegate.NodeID) (uint64, float64) {
				share := p.Shares()[id]
				return uint64(1 + 1000*share), 0.002 + share/speeds[id]
			},
			Journal: journals[i],
		}, cn.Endpoint(ids[i]))
		check(err)
		return rt
	}

	victim := 3
	rts := make([]*cluster.Runtime, len(ids))
	for i := range ids {
		openJournal(i)
		rts[i] = start(i)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
		for _, j := range journals {
			j.Close()
		}
	}()

	fmt.Printf("5 nodes tuning %q over a lossy network, journaling every installed map\n\n", placement.StrategyANU)
	waitUntil("initial convergence", 20*time.Second, func() bool {
		return convergedAll(rts) && rts[2].Stats().MapRound >= 4
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

	// --- the delegate starts the live cutover ---------------------------
	check(rts[0].Migrate(placement.StrategyChordBounded))
	fmt.Printf("\ndelegate migrating %s -> %s at its next round\n", placement.StrategyANU, placement.StrategyChordBounded)

	// --- crash a follower inside the migration window -------------------
	waitUntil("victim inside the migration window", 20*time.Second, func() bool {
		return rts[victim].Stats().Window.IsOpen()
	})
	w := rts[victim].Stats().Window
	rts[victim].Stop()
	check(journals[victim].Close())
	fmt.Printf("node %d killed inside the window opened at round %d (it serves %q, and still admits %q maps)\n",
		victim, w.Opened, placement.StrategyChordBounded, w.From)

	// --- restart it from the journal ------------------------------------
	openJournal(victim)
	if rec, ok := journals[victim].LastPlacement(); ok {
		fmt.Printf("reopened journal: newest map at (epoch %d, round %d), %d bytes\n", rec.Epoch, rec.Round, len(rec.Map))
	}
	rts[victim] = start(victim)
	s = rts[victim].Stats()
	fmt.Printf("node %d restarted on %q (config says %q), window from %q open: %v\n",
		victim, s.Strategy, placement.StrategyANU, s.Window.From, s.Window.IsOpen())

	// --- the cutover completes everywhere -------------------------------
	waitUntil("cluster-wide cutover", 30*time.Second, func() bool {
		for _, rt := range rts {
			if s := rt.Stats(); s.Strategy != placement.StrategyChordBounded || s.Window.IsOpen() {
				return false
			}
		}
		return true
	})
	fmt.Printf("\nevery node now serves %q; the plain map closed the window at round %d\n",
		placement.StrategyChordBounded, rts[0].Stats().MapRound)

	waitUntil("reconvergence on the new strategy", 20*time.Second, func() bool {
		if !convergedAll(rts) {
			return false
		}
		// Let the gossip settle so the per-node stats below show the
		// cluster at rest: everyone behind delegate 0.
		for _, rt := range rts {
			if rt.Stats().Delegate != 0 {
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

func convergedAll(rts []*cluster.Runtime) bool {
	_, mr, fp := rts[0].MapState()
	if mr == 0 {
		return false
	}
	for _, rt := range rts[1:] {
		if _, r, f := rt.MapState(); f != fp || r != mr {
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
