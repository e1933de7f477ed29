package main

import (
	"fmt"
	"slices"
	"time"

	"anurand/internal/anu"
	"anurand/internal/cluster"
	"anurand/internal/placement"
)

const (
	// serveClient is the node whose runtime the client calls; the cycle
	// only ever restarts node 0, the delegate.
	serveClient = 7
	batchKeys   = 256
	// checkEvery picks the batches compared against a decoded snapshot;
	// the comparison runs outside the timed call.
	checkEvery = 1024
	// cycleTimeout bounds a failover and a rejoin; either taking longer
	// is a failed operation.
	cycleTimeout = 5 * time.Second
	// cycleSettle is the gap between cycles: two rounds of ordinary
	// installs beside the reads.
	cycleSettle = 100 * time.Millisecond
)

// serveSpec is the serve-failover cluster: 8 anu nodes, 50 ms rounds
// with the default heartbeat, 1% drop, up to 2 ms delay, an in-memory
// journal per node that a restart recovers from.
//
// A node that hears no peer for FailAfter takes over as delegate in an
// epoch the rightful delegate may also hold (see watchdogAfter). The
// default FailAfter, 75 ms at this cadence, is shorter than the stalls a
// shared host gives: on a 2-vCPU VM, an fsync blocking a node's receive
// loop for 100 ms was enough to make one node elect itself beside the new delegate. So
// the journal does no disk work here (rounds-n50 measures it), and a
// peer counts as dead after 500 ms of silence.
var serveSpec = clusterSpec{
	n:         8,
	strategy:  placement.StrategyANU,
	round:     50 * time.Millisecond,
	failAfter: 500 * time.Millisecond,
	drop:      0.01,
	maxDelay:  2 * time.Millisecond,
}

// cycle is one failover-and-rejoin of the delegate, in recorder time.
type cycle struct {
	stopped     int64  // node 0's Stop returned
	firstSend   int64  // a survivor sent at a higher epoch
	firstAppend int64  // a survivor installed at a higher epoch
	begin       int64  // node 0's restart began
	started     int64  // its cluster.Start returned
	done        int64  // all nodes hold one map under node 0 again
	err         string // why the cycle failed; empty when it completed
}

type serve struct {
	tb   *testbed
	keys []string
	res  *result
	log  *spanLog // traced windows only
}

// serveWindow is what one measured window of serve-failover saw.
type serveWindow struct {
	batches       []float64 // ms per LookupBatch call
	before, after usage
	from, to      int64
	cycles        []cycle
	c0, c1        counters
}

// runServe is the request path under faults: one closed-loop client
// resolves 256-key batches on node 7 while the delegate is stopped and
// restarted from its journal over and over.
func runServe(o opts) (*result, error) {
	res := newResult("serve-failover")
	tb, setups, err := setupCluster(serveSpec, o, o.setupsOr(5))
	if err != nil {
		return nil, err
	}
	defer tb.close()
	res.set("setup_s", median(setups), "s", len(setups))
	if err := tb.chaos(); err != nil {
		return nil, err
	}
	mon := startCoherence(tb, 10*time.Millisecond)
	time.Sleep(2 * serveSpec.round)

	sv := &serve{tb: tb, keys: makeKeys(o.seed), res: res}
	w := sv.window(o.window)
	res.setOps(w.batches, w.before, w.after)
	if o.trace {
		sv.log = &spanLog{}
		res.spans = sv.log
		tw := sv.window(o.window)
		cs := tb.rec.control(tw.from, tw.to, serveSpec.round, serveSpec.quorum(), sv.log)
		cs.setLayers(res, tw.c0, tw.c1)
		sv.setFaultLayers(tw)
		overhead(res, w.batches, tw.batches)
	}
	mon.finish(res)

	tb.stopAll()
	if o.trace {
		client := tb.node(serveClient)
		owners := make([]anu.ServerID, batchKeys)
		batch := sv.keys[:batchKeys]
		_, bytes := allocsPer(1000, func() { client.LookupBatch(batch, owners) })
		res.set("go.alloc_b_per_batch", bytes, "B", 1000)
		probeLayers(res, client.Placement(), tb.rec.latestReports(), sv.keys)
		perKey := res.metrics["op_ms_mean"].Value * 1e6 / batchKeys
		res.set("cluster.lookup_overhead_ns_per_key", perKey-res.metrics["placement.lookup_ns_per_key"].Value, "ns", 1)
	}
	return res, nil
}

// window runs the client for d while the failover cycle repeats beside
// it, then drains the rounds opened inside it.
func (sv *serve) window(d time.Duration) serveWindow {
	tb := sv.tb
	tb.rec.tracing.Store(sv.log != nil)
	defer tb.rec.tracing.Store(false)
	var w serveWindow
	w.c0 = tb.counters(1)
	stop := make(chan struct{})
	cycles := make(chan []cycle, 1)
	w.before = readUsage()
	w.from = tb.rec.now()
	go func() { cycles <- sv.cycles(stop) }()

	rt := tb.node(serveClient)
	owners := make([]anu.ServerID, batchKeys)
	nb := len(sv.keys) / batchKeys
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		batch := sv.keys[(i%nb)*batchKeys : (i%nb+1)*batchKeys]
		check := i%checkEvery == 0
		var e0, r0, f0 uint64
		if check {
			e0, r0, f0 = rt.MapState()
		}
		t0 := time.Now()
		got := rt.LookupBatch(batch, owners)
		t1 := time.Now()
		w.batches = append(w.batches, ms(t1.Sub(t0)))
		if got != batchKeys {
			sv.res.fail("LookupBatch resolved %d of %d keys", got, batchKeys)
		}
		if check {
			sv.verify(rt, batch, owners, e0, r0, f0)
			if sv.log != nil {
				sv.log.add("lookup_batch", uint64(i), 0, tb.rec.at(t0), tb.rec.at(t1))
			}
		}
		if !t1.Before(deadline) {
			break
		}
	}
	w.after = readUsage()
	w.to = tb.rec.now()
	sv.res.attempted += len(w.batches)
	close(stop)
	w.cycles = <-cycles
	for _, c := range w.cycles {
		sv.res.check(c.err == "", "failover cycle: %s", c.err)
	}
	tb.drain(w.to)
	w.c1 = tb.counters(1)
	return w
}

// verify compares a batch with the owners a freshly decoded snapshot
// gives, when no install raced the check.
func (sv *serve) verify(rt *cluster.Runtime, batch []string, owners []anu.ServerID, e0, r0, f0 uint64) {
	snap := rt.Snapshot()
	if e, r, f := rt.MapState(); e != e0 || r != r0 || f != f0 {
		return
	}
	s, err := placement.Decode(snap, decodeOptions())
	if err != nil {
		sv.res.check(false, "decode node %d snapshot: %v", serveClient, err)
		return
	}
	want := make([]anu.ServerID, len(batch))
	s.LookupBatch(batch, want)
	sv.res.check(slices.Equal(owners[:len(batch)], want), "LookupBatch disagrees with the decoded snapshot at (epoch %d, round %d)", e0, r0)
}

// cycles repeats the failover cycle until stop closes. It runs beside
// the client and touches no shared result: window tallies the cycles.
func (sv *serve) cycles(stop <-chan struct{}) []cycle {
	var out []cycle
	for {
		select {
		case <-stop:
			return out
		default:
		}
		out = append(out, sv.cycle())
		select {
		case <-stop:
			return out
		case <-time.After(cycleSettle):
		}
	}
}

// cycle stops the delegate (node 0), waits for a survivor to install a
// map from a newer epoch, restarts node 0 from its journal and waits
// until every node holds one map with node 0 as delegate again.
func (sv *serve) cycle() cycle {
	tb, rec := sv.tb, sv.tb.rec
	var epoch uint64
	for _, rt := range tb.nodes()[1:] {
		epoch = max(epoch, rt.Epoch())
	}
	var c cycle
	rec.arm(epoch)
	tb.stopNode(0)
	c.stopped = rec.now()
	_, failedOver := tb.waitFor(cycleTimeout, func() bool { return rec.firstAppend.Load() != 0 })
	c.firstSend, c.firstAppend = rec.firstSend.Load(), rec.firstAppend.Load()
	rec.disarm()

	c.begin = rec.now()
	err := tb.startNode(0)
	c.started = rec.now()
	rejoined := false
	if err == nil {
		c.done, rejoined = tb.waitFor(cycleTimeout, tb.rejoined)
	}
	switch {
	case !failedOver:
		c.err = fmt.Sprintf("no survivor installed a newer map within %v of stopping the delegate", cycleTimeout)
	case err != nil:
		c.err = fmt.Sprintf("restart node 0: %v", err)
	case !rejoined:
		c.err = fmt.Sprintf("cluster did not re-elect node 0 onto one map within %v", cycleTimeout)
	}
	return c
}

// rejoined reports whether every node names node 0 as delegate and holds
// the same map, produced in node 0's current epoch.
func (tb *testbed) rejoined() bool {
	rts := tb.nodes()
	for _, rt := range rts {
		if rt.Delegate() != 0 {
			return false
		}
	}
	epoch, ok := oneMap(rts)
	return ok && epoch == rts[0].Epoch()
}

// setFaultLayers records the failover and rejoin split of a traced
// window and its cycle spans.
func (sv *serve) setFaultLayers(w serveWindow) {
	var failover, detect, firstRound, rejoin, start, reelect []float64
	for i, c := range w.cycles {
		if c.err != "" {
			continue
		}
		failover = append(failover, float64(c.firstAppend-c.stopped)/1e6)
		detect = append(detect, float64(c.firstSend-c.stopped)/1e6)
		firstRound = append(firstRound, float64(c.firstAppend-c.firstSend)/1e6)
		rejoin = append(rejoin, float64(c.done-c.begin)/1e6)
		start = append(start, float64(c.started-c.begin)/1e6)
		reelect = append(reelect, float64(c.done-c.started)/1e6)
		id := uint64(i + 1)
		f := sv.log.add("failover", id, 0, c.stopped, c.firstAppend)
		sv.log.add("detect", id, f, c.stopped, c.firstSend)
		sv.log.add("first_round", id, f, c.firstSend, c.firstAppend)
		r := sv.log.add("rejoin", id, 0, c.begin, c.done)
		sv.log.add("start", id, r, c.begin, c.started)
		sv.log.add("reelect", id, r, c.started, c.done)
	}
	n := len(failover)
	res := sv.res
	res.set("cluster.failover_ms_p50", median(failover), "ms", n)
	res.set("cluster.rejoin_ms_p50", median(rejoin), "ms", n)
	res.set("cluster.failover.detect_ms_p50", median(detect), "ms", n)
	res.set("cluster.failover.first_round_ms_p50", median(firstRound), "ms", n)
	res.set("cluster.rejoin.start_ms_p50", median(start), "ms", n)
	res.set("cluster.rejoin.reelect_ms_p50", median(reelect), "ms", n)
	if len(w.cycles) > 0 {
		res.set("cluster.reelections_per_cycle", float64(w.c1.reelections-w.c0.reelections)/float64(len(w.cycles)), "count", len(w.cycles))
	}
}
