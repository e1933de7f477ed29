package main

import (
	"bytes"
	"time"

	"anurand/internal/cluster"
	"anurand/internal/placement"
)

// The two tuning-round workloads share cadence and loss: 250 ms rounds,
// 125 ms heartbeats, 750 ms FailAfter, 2% drop and up to 5 ms delay.
var (
	// roundsN50 is the paper's strategy at moderate size with an fsync
	// per install.
	roundsN50 = clusterSpec{
		n:         50,
		strategy:  placement.StrategyANU,
		round:     250 * time.Millisecond,
		heartbeat: 125 * time.Millisecond,
		failAfter: 750 * time.Millisecond,
		drop:      0.02,
		maxDelay:  5 * time.Millisecond,
		disk:      true,
	}
	// roundsN100 is twice the size with chord-bounded, whose snapshots
	// cost far more to decode, and no disk: the journal does no work.
	roundsN100 = clusterSpec{
		n:         100,
		strategy:  placement.StrategyChordBounded,
		round:     250 * time.Millisecond,
		heartbeat: 125 * time.Millisecond,
		failAfter: 750 * time.Millisecond,
		drop:      0.02,
		maxDelay:  5 * time.Millisecond,
	}
)

// calmTimeout bounds the end-of-run convergence on a loss-free fabric.
const calmTimeout = 10 * time.Second

// controlWindow is what one measured window of a rounds workload saw.
type controlWindow struct {
	from, to      int64
	before, after usage
	c0, c1        counters
}

// runRounds drives the tuning loop alone: the delegate's round timer
// paces everything, and each follower install is one operation.
func runRounds(name string, spec clusterSpec, o opts) (*result, error) {
	res := newResult(name)
	tb, setups, err := setupCluster(spec, o, o.setupsOr(3))
	if err != nil {
		return nil, err
	}
	defer tb.close()
	res.set("setup_s", median(setups), "s", len(setups))
	if err := tb.chaos(); err != nil {
		return nil, err
	}
	mon := startCoherence(tb, 50*time.Millisecond)
	time.Sleep(2 * spec.round)

	w := roundsWindow(tb, o.window, false)
	cs := tb.rec.control(w.from, w.to, spec.round, spec.quorum(), nil)
	res.setOps(cs.installs, w.before, w.after)
	checkRounds(res, cs)
	if o.trace {
		res.spans = &spanLog{}
		tw := roundsWindow(tb, o.window, true)
		tcs := tb.rec.control(tw.from, tw.to, spec.round, spec.quorum(), res.spans)
		checkRounds(res, tcs)
		tcs.setLayers(res, tw.c0, tw.c1)
		overhead(res, cs.installs, tcs.installs)
	}
	calmCheck(tb, res)
	mon.finish(res)

	tb.stopAll()
	if o.trace {
		probeLayers(res, tb.node(spec.n-1).Placement(), tb.rec.latestReports(), makeKeys(o.seed))
	}
	return res, nil
}

// checkRounds counts every follower-round of a window as attempted and
// every round that no follower installed as failed.
func checkRounds(res *result, cs controlStats) {
	res.attempted += cs.followerRounds
	for i := 0; i < cs.emptyRounds; i++ {
		res.fail("a round opened and no follower installed its map")
	}
}

// roundsWindow measures for d, then drains the rounds opened inside it.
func roundsWindow(tb *testbed, d time.Duration, traced bool) controlWindow {
	tb.rec.tracing.Store(traced)
	defer tb.rec.tracing.Store(false)
	var w controlWindow
	w.c0 = tb.counters(0)
	w.before = readUsage()
	w.from = tb.rec.now()
	time.Sleep(d)
	w.to = tb.rec.now()
	w.after = readUsage()
	tb.drain(w.to)
	w.c1 = tb.counters(0)
	return w
}

// calmCheck turns the loss off and demands that every node lands on one
// byte-identical map. Rounds keep installing meanwhile, so the snapshots
// count only when every node held the same map before and after they
// were read.
func calmCheck(tb *testbed, res *result) {
	if err := tb.net.SetConfig(cluster.ChaosConfig{}); err != nil {
		res.check(false, "calm the fabric: %v", err)
		return
	}
	same := false
	_, ok := tb.waitFor(calmTimeout, func() bool {
		rts := tb.nodes()
		e0, r0, f0 := rts[0].MapState()
		if _, ok := oneMap(rts); !ok {
			return false
		}
		snaps := make([][]byte, len(rts))
		for i, rt := range rts {
			snaps[i] = rt.Snapshot()
		}
		if e, r, f := rts[0].MapState(); e != e0 || r != r0 || f != f0 {
			return false
		}
		if _, ok := oneMap(rts); !ok {
			return false
		}
		same = true
		for _, snap := range snaps[1:] {
			same = same && bytes.Equal(snap, snaps[0])
		}
		return true
	})
	res.check(ok, "nodes held no common map within %v on a calm fabric", calmTimeout)
	if ok {
		res.check(same, "nodes on one (epoch, round, fingerprint) hold different snapshot bytes")
	}
}
