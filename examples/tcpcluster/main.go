// TCP cluster: the delegate protocol over real sockets.
//
// Five management agents run in one process, each listening on a
// loopback TCP port, driven by the internal/cluster runtime: wall-clock
// rounds, heartbeat liveness, and delegate-paced tuning, with every
// installed placement journaled to disk. Halfway through, the delegate
// is killed; the next-lowest agent takes over because the delegate is
// stateless (Section 4 of the paper). The killed node then restarts
// from its journal and rejoins at its recovered (epoch, round) fence
// rather than the bootstrap snapshot.
//
// Run with: go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"anurand/internal/anu"
	"anurand/internal/cluster"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

const numNodes = 5

// speeds: node 0 is the slowest machine, node 4 the fastest.
var speeds = map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}

// observe models a closed-loop workload: latency grows with the share
// of the hash space a node owns, divided by its machine speed.
func observe(p placement.Strategy, id delegate.NodeID) (uint64, float64) {
	share := p.Shares()[id]
	return uint64(1 + 1000*share), 0.002 + share/speeds[id]
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tcpcluster: ")

	ids := make([]delegate.NodeID, numNodes)
	for i := range ids {
		ids[i] = delegate.NodeID(i)
	}
	m, err := anu.New(hashx.NewFamily(42), ids)
	if err != nil {
		log.Fatal(err)
	}
	snapshot := m.Encode()

	dir, err := os.MkdirTemp("", "anurand-tcpcluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	journals := make([]*journal.Journal, numNodes)
	for i := range journals {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			log.Fatal(err)
		}
		journals[i] = j
	}
	defer func() {
		for _, j := range journals {
			j.Close()
		}
	}()

	book := cluster.NewAddressBook()
	start := func(i int, id delegate.NodeID) *cluster.Runtime {
		tr, err := cluster.ListenTCP(id, book, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		rt, err := cluster.Start(cluster.Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: 100 * time.Millisecond,
			Observe:       observe,
			Journal:       journals[i],
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("node %d listening on %s", id, tr.Addr())
		return rt
	}
	rts := make([]*cluster.Runtime, numNodes)
	for i, id := range ids {
		rts[i] = start(i, id)
	}

	time.Sleep(2 * time.Second)
	log.Printf("killing the delegate (node 0) mid-run")
	rts[0].Stop()
	time.Sleep(2 * time.Second)

	fmt.Println("\nsurvivors after delegate failover:")
	for _, rt := range rts[1:] {
		printNode(rt)
	}

	// Restart the killed node from its journal: a real restart reopens
	// the WAL from disk, so do the same here.
	if err := journals[0].Close(); err != nil {
		log.Fatal(err)
	}
	j, err := journal.Open(filepath.Join(dir, "node0.wal"), journal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	journals[0] = j
	log.Printf("restarting node 0 from its journal")
	rts[0] = start(0, ids[0])
	time.Sleep(2 * time.Second)

	fmt.Println("\nafter journal-recovery restart of node 0:")
	for _, rt := range rts {
		printNode(rt)
		rt.Stop()
	}
	s0 := rts[0].Stats()
	if !s0.Recovered {
		log.Fatal("node 0 did not recover from its journal")
	}
	fmt.Printf("\nnode 0 recovered from journal at (epoch %d, round %d): %d record(s) replayed, %d torn tail(s) truncated\n",
		s0.RecoveredEpoch, s0.RecoveredRound, s0.Journal.RecordsRecovered, s0.Journal.TornTailsTruncated)
}

// printNode prints one node's delegate, installed map and share.
func printNode(rt *cluster.Runtime) {
	s := rt.Stats()
	_, _, fp := rt.MapState()
	fmt.Printf("  node %d: delegate=%d round=%d map=%012x share=%5.1f%%  %s\n",
		s.ID, s.Delegate, s.MapRound, fp&0xffffffffffff, 100*rt.Placement().Shares()[s.ID], s.String())
}
