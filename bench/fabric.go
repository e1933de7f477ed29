package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anurand/internal/anu"
	"anurand/internal/cluster"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

// recorder sees the control path from outside the runtime: every Send
// through the benchmark's transport wrapper and every Append through its
// journal wrappers, stamped in ns since base.
//
// Untraced, it keeps only what the end-to-end numbers need: the highest
// round seen with the time that round opened (the first Send carrying
// it), and one timestamp per journal Append. Traced, it also keeps every
// report and map Send and every observer call, from which the stage split
// of a round is built.
type recorder struct {
	base    time.Time
	n       int
	tracing atomic.Bool

	maxRound atomic.Uint64

	// watchEpoch arms the failover probe: while it is non-zero the first
	// Send and the first Append at a higher epoch are stamped.
	watchEpoch  atomic.Uint64
	firstSend   atomic.Int64
	firstAppend atomic.Int64

	mu         sync.Mutex
	opens      map[uint64]openEvent
	appends    []appendEvent
	reports    []msgEvent // traced only
	maps       []msgEvent // traced only
	observes   []obsEvent // traced only
	lastReport []placement.Report
}

type openEvent struct {
	at int64
	by delegate.NodeID
}

type appendEvent struct {
	node       delegate.NodeID
	round      uint64
	start, end int64
}

type msgEvent struct {
	round    uint64
	from, to delegate.NodeID
	bytes    int
	at       int64
}

type obsEvent struct {
	round      uint64
	start, end int64
}

func newRecorder(n int) *recorder {
	return &recorder{
		base:       time.Now(),
		n:          n,
		opens:      make(map[uint64]openEvent),
		lastReport: make([]placement.Report, n),
	}
}

func (rec *recorder) now() int64 { return int64(time.Since(rec.base)) }

// at converts a wall-clock reading to the recorder's clock.
func (rec *recorder) at(t time.Time) int64 { return int64(t.Sub(rec.base)) }

// sent is called before a message enters the fabric.
func (rec *recorder) sent(msg delegate.Message) {
	if msg.Round > rec.maxRound.Load() {
		rec.open(msg.Round, msg.From)
	}
	if w := rec.watchEpoch.Load(); w != 0 && msg.Epoch > w {
		rec.firstSend.CompareAndSwap(0, rec.now())
	}
	if !rec.tracing.Load() || (msg.Kind != delegate.MsgReport && msg.Kind != delegate.MsgMap) {
		return
	}
	ev := msgEvent{round: msg.Round, from: msg.From, to: msg.To, bytes: len(msg.Payload), at: rec.now()}
	rec.mu.Lock()
	if msg.Kind == delegate.MsgMap {
		rec.maps = append(rec.maps, ev)
	} else {
		rec.reports = append(rec.reports, ev)
	}
	rec.mu.Unlock()
}

// open stamps the first Send of a round the cluster has not seen yet.
// Round numbers are cluster-wide monotone gossip, so a new delegate after
// a failover opens a round above every earlier one.
func (rec *recorder) open(round uint64, by delegate.NodeID) {
	at := rec.now()
	rec.mu.Lock()
	if round > rec.maxRound.Load() {
		rec.maxRound.Store(round)
		rec.opens[round] = openEvent{at: at, by: by}
	}
	rec.mu.Unlock()
}

func (rec *recorder) appended(node delegate.NodeID, r journal.Record, start, end int64) {
	if w := rec.watchEpoch.Load(); w != 0 && r.Epoch > w {
		rec.firstAppend.CompareAndSwap(0, end)
	}
	rec.mu.Lock()
	rec.appends = append(rec.appends, appendEvent{node: node, round: r.Round, start: start, end: end})
	rec.mu.Unlock()
}

// installedSince reports whether a round opened at or after t has been
// installed anywhere.
func (rec *recorder) installedSince(t int64) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := len(rec.appends) - 1; i >= 0 && rec.appends[i].end >= t; i-- {
		if op, ok := rec.opens[rec.appends[i].round]; ok && op.at >= t {
			return true
		}
	}
	return false
}

// arm starts watching for the first Send and Append above epoch.
func (rec *recorder) arm(epoch uint64) {
	rec.firstSend.Store(0)
	rec.firstAppend.Store(0)
	rec.watchEpoch.Store(epoch)
}

func (rec *recorder) disarm() { rec.watchEpoch.Store(0) }

// observer is the benchmark's ObserveFunc, the closed loop of the paper's
// cluster: a node's mean latency is a fixed 2 ms plus its key-space share
// divided by its speed. Each node's latest sample is kept as a report for
// the placement probes.
func (rec *recorder) observer(speeds []float64) cluster.ObserveFunc {
	return func(s placement.Strategy, id delegate.NodeID) (uint64, float64) {
		start := rec.now()
		share := s.Shares()[id]
		requests, latency := uint64(1+1000*share), 0.002+share/speeds[id]
		end := rec.now()
		rec.mu.Lock()
		rec.lastReport[id] = placement.Report{Server: id, Requests: requests, Latency: latency}
		if rec.tracing.Load() {
			rec.observes = append(rec.observes, obsEvent{round: rec.maxRound.Load(), start: start, end: end})
		}
		rec.mu.Unlock()
		return requests, latency
	}
}

// latestReports returns the observer's latest sample of every node that has
// one.
func (rec *recorder) latestReports() []placement.Report {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]placement.Report, 0, len(rec.lastReport))
	for id, r := range rec.lastReport {
		if r.Requests > 0 {
			r.Server = delegate.NodeID(id)
			out = append(out, r)
		}
	}
	return out
}

// endpoint is the benchmark's transport: a MemEndpoint that shows the
// recorder every message before the fabric takes it.
type endpoint struct {
	*cluster.MemEndpoint
	rec *recorder
}

var _ cluster.AsyncTransport = endpoint{}

func (e endpoint) Send(msg delegate.Message) error {
	e.rec.sent(msg)
	return e.MemEndpoint.Send(msg)
}

func (e endpoint) SendAsync(msg delegate.Message) bool {
	e.rec.sent(msg)
	return e.MemEndpoint.SendAsync(msg)
}

// diskJournal times Append on an on-disk journal.
type diskJournal struct {
	*journal.Journal
	rec  *recorder
	node delegate.NodeID
}

func (j diskJournal) Append(r journal.Record) error {
	start := j.rec.now()
	err := j.Journal.Append(r)
	j.rec.appended(j.node, r, start, j.rec.now())
	return err
}

// memJournal stands in for the journal where a workload should pay no
// disk cost: it keeps the newest placement, so the runtime's install
// path runs unchanged, and records each Append like diskJournal. A node
// restarted on the same memJournal recovers from it as from a file.
type memJournal struct {
	rec  *recorder
	node delegate.NodeID
	mu   sync.Mutex
	last journal.Record
	have bool
}

func (j *memJournal) Last() (journal.Record, bool) { return j.LastPlacement() }

func (j *memJournal) LastPlacement() (journal.Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last, j.have
}

func (j *memJournal) LastMigration() (journal.Record, bool) { return journal.Record{}, false }

func (j *memJournal) Append(r journal.Record) error {
	start := j.rec.now()
	j.mu.Lock()
	if !j.have || r.Supersedes(j.last) {
		j.last, j.have = r, true
	}
	j.mu.Unlock()
	j.rec.appended(j.node, r, start, j.rec.now())
	return nil
}

// clusterSpec is one cluster shape the control workloads run.
type clusterSpec struct {
	n         int
	strategy  string
	round     time.Duration
	heartbeat time.Duration // 0 means the runtime default
	failAfter time.Duration // 0 means the runtime default
	drop      float64
	maxDelay  time.Duration
	disk      bool // on-disk journal.Journal per node, else memJournal
}

// watchdogAfter replaces the runtime's default watchdog of 3 rounds. A
// node that takes over as delegate while the rightful one still runs
// (a false suspicion) opens the same epoch as a survivor that took over
// rightly, or as the old delegate once it adopts that epoch from gossip,
// and the two issue different maps at one (epoch, round), which the
// coherence check counts as a failure. A 3-round watchdog starts that
// race whenever a follower misses three maps in a row or a failover
// takes close to three rounds. The workloads measure the tuning loop and
// failover, not that race, so the watchdog waits 2 s, far longer than
// any failover they run.
const watchdogAfter = 2 * time.Second

// watchdogRounds is watchdogAfter in rounds of the spec's cadence.
func (s clusterSpec) watchdogRounds() uint64 { return uint64(watchdogAfter / s.round) }

// quorum is the runtime's default report quorum, which counts the
// delegate's own sample.
func (s clusterSpec) quorum() int { return s.n/2 + 1 }

// testbed is one running cluster of runtimes on a MemNetwork.
type testbed struct {
	spec     clusterSpec
	ids      []delegate.NodeID
	snapshot []byte
	speeds   []float64
	net      *cluster.MemNetwork
	rec      *recorder
	dir      string

	mu       sync.Mutex
	rts      []*cluster.Runtime
	journals []*journal.Journal
	mems     []*memJournal // per node, kept across restarts
}

// startTestbed starts every node on a calm fabric; the caller turns the
// loss on with chaos once the cluster holds its first map.
func startTestbed(spec clusterSpec, seed uint64, outDir string) (*testbed, error) {
	tb := &testbed{
		spec:     spec,
		ids:      make([]delegate.NodeID, spec.n),
		speeds:   make([]float64, spec.n),
		rec:      newRecorder(spec.n),
		rts:      make([]*cluster.Runtime, spec.n),
		journals: make([]*journal.Journal, spec.n),
		mems:     make([]*memJournal, spec.n),
	}
	for i := range tb.ids {
		tb.ids[i] = delegate.NodeID(i)
		// Speeds cycle 1x..8x, as in the scale soak: unequal machines keep
		// the delegate re-tuning every round.
		tb.speeds[i] = 1 + float64(i%8)
	}
	s, err := placement.New(spec.strategy, tb.ids, placement.Options{HashSeed: 42})
	if err != nil {
		return nil, err
	}
	tb.snapshot = s.Encode()
	if tb.net, err = cluster.NewMemNetwork(cluster.ChaosConfig{Seed: seed}, 4096); err != nil {
		return nil, err
	}
	if spec.disk {
		if tb.dir, err = os.MkdirTemp(outDir, "journals-"); err != nil {
			tb.net.Close()
			return nil, err
		}
	}
	for i := range tb.ids {
		if err := tb.startNode(i); err != nil {
			tb.close()
			return nil, err
		}
	}
	return tb, nil
}

// chaos turns on the spec's loss and delay, keeping the fabric's seeded
// randomness stream.
func (tb *testbed) chaos() error {
	return tb.net.SetConfig(cluster.ChaosConfig{Drop: tb.spec.drop, MaxDelay: tb.spec.maxDelay})
}

func (tb *testbed) startNode(i int) error {
	id := tb.ids[i]
	var jr cluster.Journal
	var j *journal.Journal
	if !tb.spec.disk {
		if tb.mems[i] == nil {
			tb.mems[i] = &memJournal{rec: tb.rec, node: id}
		}
		jr = tb.mems[i]
	} else {
		var err error
		if j, err = journal.Open(filepath.Join(tb.dir, fmt.Sprintf("node-%03d.wal", i)), journal.Options{}); err != nil {
			return err
		}
		jr = diskJournal{Journal: j, rec: tb.rec, node: id}
	}
	rt, err := cluster.Start(cluster.Config{
		ID:                id,
		Members:           tb.ids,
		Snapshot:          tb.snapshot,
		Strategy:          tb.spec.strategy,
		Controller:        anu.DefaultControllerConfig(),
		RoundInterval:     tb.spec.round,
		HeartbeatInterval: tb.spec.heartbeat,
		FailAfter:         tb.spec.failAfter,
		WatchdogRounds:    tb.spec.watchdogRounds(),
		Observe:           tb.rec.observer(tb.speeds),
		Journal:           jr,
	}, endpoint{MemEndpoint: tb.net.Endpoint(id), rec: tb.rec})
	if err != nil {
		if j != nil {
			j.Close()
		}
		return fmt.Errorf("start node %d: %w", id, err)
	}
	tb.mu.Lock()
	tb.rts[i], tb.journals[i] = rt, j
	tb.mu.Unlock()
	return nil
}

// stopNode stops a runtime and closes its journal, as a crash-free
// process exit would.
func (tb *testbed) stopNode(i int) {
	tb.mu.Lock()
	rt, j := tb.rts[i], tb.journals[i]
	tb.journals[i] = nil
	tb.mu.Unlock()
	if rt != nil {
		rt.Stop()
	}
	if j != nil {
		j.Close()
	}
}

// stopAll stops every node; runtimes stay readable.
func (tb *testbed) stopAll() {
	for i := range tb.ids {
		tb.stopNode(i)
	}
}

func (tb *testbed) close() {
	tb.stopAll()
	tb.net.Close()
	if tb.dir != "" {
		os.RemoveAll(tb.dir)
	}
}

func (tb *testbed) node(i int) *cluster.Runtime {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.rts[i]
}

func (tb *testbed) nodes() []*cluster.Runtime {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([]*cluster.Runtime(nil), tb.rts...)
}

// oneMap reports whether every node holds the same installed map — the
// same epoch, round and fingerprint — past the bootstrap placement.
func oneMap(rts []*cluster.Runtime) (epoch uint64, ok bool) {
	e0, r0, f0 := rts[0].MapState()
	if r0 == 0 {
		return 0, false
	}
	for _, rt := range rts[1:] {
		if e, r, f := rt.MapState(); e != e0 || r != r0 || f != f0 {
			return 0, false
		}
	}
	return e0, true
}

// waitFor polls cond every millisecond and returns the recorder time at
// which it first held.
func (tb *testbed) waitFor(timeout time.Duration, cond func() bool) (int64, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return tb.rec.now(), true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// drainTimeout bounds drain; a cluster that installs nothing for that
// long has stopped making progress, which the round checks report.
const drainTimeout = 10 * time.Second

// drain waits, after a window closing at to, until a round opened after
// it has installed somewhere and one more round has passed: followers
// install in round order, so by then every round opened inside the
// window has installed wherever it will.
func (tb *testbed) drain(to int64) {
	tb.waitFor(drainTimeout, func() bool { return tb.rec.installedSince(to) })
	time.Sleep(tb.spec.round)
}

// counters sums the runtime counters the control metrics read over nodes
// from..n-1, plus the fabric's own.
type counters struct {
	sendDrops, staleMaps, reelections uint64
	net                               cluster.ChaosStats
}

func (tb *testbed) counters(from int) counters {
	var c counters
	for _, rt := range tb.nodes()[from:] {
		s := rt.Stats()
		c.sendDrops += s.SendDrops
		c.staleMaps += s.StaleMapsRejected
		c.reelections += s.Reelections
	}
	c.net = tb.net.Stats()
	return c
}

// setupTimeout bounds one cold start; a cluster that needs longer is
// broken, not slow.
const setupTimeout = 20 * time.Second

// setupCluster starts the cluster `setups` times on a calm fabric, timing
// each cold start until every node holds one map, and keeps the last one
// running. The fabric is calm during set-up so the time measures the
// program's start and first round, not how long loss takes to spare all
// n nodes at once.
func setupCluster(spec clusterSpec, o opts, setups int) (*testbed, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		tb, err := startTestbed(spec, o.seed, o.outDir)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := tb.waitFor(setupTimeout, func() bool { _, ok := oneMap(tb.nodes()); return ok }); !ok {
			tb.close()
			return nil, nil, fmt.Errorf("%d-node %s cluster held no common map within %v", spec.n, spec.strategy, setupTimeout)
		}
		times = append(times, time.Since(start).Seconds())
		if i == setups-1 {
			return tb, times, nil
		}
		tb.close()
	}
}
