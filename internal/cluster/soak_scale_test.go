package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/placement"
)

// scaleSizes are the cluster sizes the scale soak bakes each strategy
// at. Short mode and race-detector builds keep the 50-node column —
// the detector's slowdown would push the 100/200 cells past go test's
// default timeout without exercising any additional code path — so
// `make race` and CI's soak-scale-short stay bounded; the full ladder
// is `make soak-scale`.
func scaleSizes() []int {
	if testing.Short() || raceEnabled {
		return []int{50}
	}
	return []int{50, 100, 200}
}

// coherenceMonitor samples every runtime's installed-map identity and
// holds the soak's core invariant: two nodes that claim the same
// (epoch, round) must hold byte-identical maps (equal fingerprints),
// and each node's installed round never moves backwards. It is the
// scaled-up version of the paper's consistency claim — one coherent
// placement per round, cluster-wide, under loss and reordering.
type coherenceMonitor struct {
	mu         sync.Mutex
	seen       map[[2]uint64]uint64 // (epoch, round) -> fingerprint
	lastEpoch  []uint64
	lastRound  []uint64
	rounds     uint64 // distinct (epoch, round) pairs observed
	violations []string
	stop       chan struct{}
	done       chan struct{}
}

func startCoherenceMonitor(rts []*Runtime, every time.Duration) *coherenceMonitor {
	cm := &coherenceMonitor{
		seen:      make(map[[2]uint64]uint64),
		lastEpoch: make([]uint64, len(rts)),
		lastRound: make([]uint64, len(rts)),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go func() {
		defer close(cm.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			cm.sample(rts)
			select {
			case <-cm.stop:
				cm.sample(rts)
				return
			case <-tick.C:
			}
		}
	}()
	return cm
}

func (cm *coherenceMonitor) sample(rts []*Runtime) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i, rt := range rts {
		epoch, round, fp := rt.MapState()
		if round == 0 {
			continue
		}
		key := [2]uint64{epoch, round}
		if prev, ok := cm.seen[key]; ok {
			if prev != fp {
				cm.violate("node %d: (epoch %d, round %d) fingerprint %x conflicts with earlier %x",
					rt.ID(), epoch, round, fp, prev)
			}
		} else {
			cm.seen[key] = fp
			cm.rounds++
		}
		if epoch < cm.lastEpoch[i] || (epoch == cm.lastEpoch[i] && round < cm.lastRound[i]) {
			cm.violate("node %d: installed map went backwards: (%d,%d) after (%d,%d)",
				rt.ID(), epoch, round, cm.lastEpoch[i], cm.lastRound[i])
		}
		cm.lastEpoch[i], cm.lastRound[i] = epoch, round
	}
}

func (cm *coherenceMonitor) violate(format string, args ...any) {
	if len(cm.violations) < 10 { // enough to diagnose, bounded in logs
		cm.violations = append(cm.violations, fmt.Sprintf(format, args...))
	}
}

// finish stops sampling and returns (distinct rounds seen, violations).
func (cm *coherenceMonitor) finish() (uint64, []string) {
	close(cm.stop)
	<-cm.done
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.rounds, cm.violations
}

// scaleConverged is the at-scale convergence criterion: every node
// holds a map from the newest observed view epoch, no more than one
// round behind the newest installed round, and every holder of the
// newest round agrees on its fingerprint. The strict all-identical
// check (converged) is a per-poll coin flip that shrinks as 0.98^n on
// a 2%-drop fabric — at 200 nodes one node somewhere has almost always
// just missed the latest broadcast and will catch up next round, which
// is steady-state gossip, not divergence. Byte-identical convergence
// is still asserted, once, after the fabric is calmed at the end.
func scaleConverged(rts []*Runtime) bool {
	type mapState struct{ epoch, round, fp uint64 }
	states := make([]mapState, len(rts))
	var maxEpoch, maxRound uint64
	for i, rt := range rts {
		epoch, round, fp := rt.MapState()
		if round == 0 {
			return false
		}
		states[i] = mapState{epoch, round, fp}
		if epoch > maxEpoch || (epoch == maxEpoch && round > maxRound) {
			maxEpoch, maxRound = epoch, round
		}
	}
	var leadFP uint64
	seen := false
	for _, s := range states {
		if s.epoch != maxEpoch || s.round+1 < maxRound {
			return false
		}
		if s.round == maxRound {
			if seen && s.fp != leadFP {
				return false
			}
			leadFP, seen = s.fp, true
		}
	}
	return true
}

// TestSoakScale bakes each placement strategy on 50/100/200-node
// clusters over the pooled memnet fabric with light chaos. Cadence is
// deliberately coarser than the micro tests — at 200 nodes the cold
// start heartbeats all-to-all until every node has heard the delegate
// line, and the soak's subject is coherence at scale, not raw cadence.
// For each cell it records convergence time, fabric message counts,
// messages per round and the merged install latency tail; the
// coherence monitor holds one-placement-per-round throughout, and
// heartbeats per node per interval must stay under a bound that does
// not grow with n.
func TestSoakScale(t *testing.T) {
	strategies := []string{placement.StrategyANU, placement.StrategyChordBounded, placement.StrategyRendezvous}
	for _, tag := range strategies {
		for _, n := range scaleSizes() {
			t.Run(fmt.Sprintf("%s/%d", tag, n), func(t *testing.T) {
				runScaleSoak(t, tag, n)
			})
		}
	}
}

// heartbeatsSent sums HeartbeatsSent over every runtime.
func heartbeatsSent(rts []*Runtime) uint64 {
	var sum uint64
	for _, rt := range rts {
		sum += rt.Stats().HeartbeatsSent
	}
	return sum
}

func runScaleSoak(t *testing.T, tag string, n int) {
	mn, err := NewMemNetwork(ChaosConfig{
		Drop:     0.02,
		MaxDelay: 5 * time.Millisecond,
		Seed:     uint64(n)*31 + uint64(len(tag)),
	}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()

	ids, snapshot := bootstrapStrategy(t, n, tag)
	// Heterogeneous speeds, cycling 1x..8x: the paper's setting is a
	// cluster of unequal machines, and unequal speeds keep the delegate
	// re-tuning every round instead of reaching a fixed point.
	speeds := make(map[delegate.NodeID]float64, n)
	for i, id := range ids {
		speeds[id] = 1 + float64(i%8)
	}

	const heartbeat = 250 * time.Millisecond
	start := time.Now()
	rts := make([]*Runtime, n)
	for i, id := range ids {
		rt, err := Start(Config{
			ID:                id,
			Members:           ids,
			Snapshot:          snapshot,
			Strategy:          tag,
			Controller:        anu.DefaultControllerConfig(),
			RoundInterval:     500 * time.Millisecond,
			HeartbeatInterval: heartbeat,
			FailAfter:         1500 * time.Millisecond,
			Observe:           closedLoopObserve(speeds),
		}, mn.Endpoint(id))
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		rts[i] = rt
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()

	cm := startCoherenceMonitor(rts, 50*time.Millisecond)

	// Phase 1: first cluster-wide convergence from a cold start.
	waitFor(t, 90*time.Second, fmt.Sprintf("%d nodes on one %s map", n, tag), func() bool {
		return scaleConverged(rts)
	})
	convergeIn := time.Since(start)

	// Phase 2: steady-state bake — several more rounds under chaos with
	// the monitor watching.
	bake := 5 * time.Second
	if testing.Short() {
		bake = 3 * time.Second
	}
	hbBefore, roundBefore, sentBefore := heartbeatsSent(rts), rts[0].Stats().Round, mn.Stats().Sent
	bakeStart := time.Now()
	time.Sleep(bake)
	baked := time.Since(bakeStart)
	hbBaked, roundsBaked, sentBaked := heartbeatsSent(rts)-hbBefore, rts[0].Stats().Round-roundBefore, mn.Stats().Sent-sentBefore
	// Only the delegate line heartbeats everyone; every other node
	// heartbeats the line. Per node and interval that averages about
	// 2·lineSize whatever n is, where all-to-all would send n-1.
	perNode := float64(hbBaked) / float64(n) / (float64(baked) / float64(heartbeat))
	if perNode > 3*lineSize {
		t.Errorf("bake sent %.1f heartbeats per node per interval, want at most %d", perNode, 3*lineSize)
	}
	if roundsBaked > 0 {
		t.Logf("bake: %d rounds, %d msgs per round, %.1f heartbeats per node per interval",
			roundsBaked, sentBaked/roundsBaked, perNode)
	}

	// Phase 3: calm the fabric (the migrate soak's end-of-run idiom)
	// and demand strict byte-identical convergence: with loss off,
	// every node must land on the same map at the same round.
	if err := mn.SetConfig(ChaosConfig{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 90*time.Second, "byte-identical convergence on calm fabric", func() bool {
		return converged(rts)
	})
	rounds, violations := cm.finish()
	for _, v := range violations {
		t.Errorf("coherence violation: %s", v)
	}

	install := latencyHistogram()
	var installs, heartbeats, sendDrops uint64
	for _, rt := range rts {
		s := rt.Stats()
		if s.Strategy != tag {
			t.Errorf("node %d on strategy %q, want %q", s.ID, s.Strategy, tag)
		}
		install.Merge(s.InstallLatencyHist)
		installs += s.MapsInstalled
		heartbeats += s.HeartbeatsSent
		sendDrops += s.SendDrops
	}
	st := mn.Stats()
	t.Logf("scale soak %s n=%d: converge=%v rounds=%d installs=%d "+
		"msgs(sent=%d delivered=%d dropped=%d overflowed=%d) heartbeats=%d "+
		"install-p99=%s send-drops=%d",
		tag, n, convergeIn.Round(time.Millisecond), rounds, installs,
		st.Sent, st.Delivered, st.Dropped, st.Overflowed, heartbeats,
		time.Duration(install.Quantile(0.99)*float64(time.Second)).Round(10*time.Microsecond), sendDrops)

	if install.Total() == 0 {
		t.Error("no install latencies recorded")
	}
	if st.Dropped == 0 {
		t.Error("chaos drop never fired — soak ran on a clean network")
	}
}
