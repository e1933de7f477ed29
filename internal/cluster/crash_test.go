package cluster

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/placement"
)

// pairLess orders (epoch, round) fences lexicographically.
func pairLess(e1, r1, e2, r2 uint64) bool {
	if e1 != e2 {
		return e1 < e2
	}
	return r1 < r2
}

// fenceMonitor watches live runtimes and fails the test if any node's
// installed (epoch, round) ever moves backwards within one process
// generation. Restarts re-register with the recovered fence as the new
// baseline — that is the strongest durable guarantee: a crash can lose
// the unsynced tail, but a running node never regresses below what it
// resumed from.
type fenceMonitor struct {
	t    *testing.T
	mu   sync.Mutex
	rts  map[delegate.NodeID]*Runtime
	base map[delegate.NodeID][2]uint64
	stop chan struct{}
	done chan struct{}
}

func newFenceMonitor(t *testing.T) *fenceMonitor {
	fm := &fenceMonitor{
		t:    t,
		rts:  make(map[delegate.NodeID]*Runtime),
		base: make(map[delegate.NodeID][2]uint64),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fm.run()
	return fm
}

func (fm *fenceMonitor) attach(rt *Runtime, epoch, round uint64) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	fm.rts[rt.ID()] = rt
	fm.base[rt.ID()] = [2]uint64{epoch, round}
}

func (fm *fenceMonitor) detach(id delegate.NodeID) {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	delete(fm.rts, id)
	delete(fm.base, id)
}

func (fm *fenceMonitor) check() {
	fm.mu.Lock()
	defer fm.mu.Unlock()
	for id, rt := range fm.rts {
		e, r := rt.MapEpoch(), rt.MapRound()
		b := fm.base[id]
		if pairLess(e, r, b[0], b[1]) {
			fm.t.Errorf("node %d installed fence regressed (%d,%d) -> (%d,%d)", id, b[0], b[1], e, r)
			continue
		}
		fm.base[id] = [2]uint64{e, r}
	}
}

func (fm *fenceMonitor) run() {
	defer close(fm.done)
	for {
		select {
		case <-fm.stop:
			return
		case <-time.After(5 * time.Millisecond):
			fm.check()
		}
	}
}

func (fm *fenceMonitor) close() {
	close(fm.stop)
	<-fm.done
}

// TestCrashRestartChaosSoak is the durability acceptance soak: a 5-node
// cluster on a 30%-loss, duplicating, reordering network, with nodes
// killed mid-round, their journal tails damaged the way a crash would,
// and the processes restarted from the surviving bytes. Assertions:
//
//   - recovery never fails and never invents state: the reopened
//     journal's record is the one that was durable at the kill, or an
//     older one when the tail was damaged — never newer;
//   - every restarted runtime resumes at exactly the recovered (epoch,
//     round), not at the bootstrap snapshot;
//   - no running node's installed fence ever moves backwards (monitored
//     continuously, baselined at the recovered fence after restarts);
//   - once the network calms, all five nodes reconverge to
//     byte-identical placements passing CheckInvariants.
func TestCrashRestartChaosSoak(t *testing.T) {
	runCrashRestartSoak(t, placement.StrategyANU)
}

// TestCrashRestartChaosSoakChordBounded runs the same durability soak
// with the bounded-load chord ring: the placement layer's promise is
// that a non-ANU strategy survives the identical crash/restart/chaos
// schedule end-to-end — tagged snapshots through the wire protocol, the
// journal, and recovery.
func TestCrashRestartChaosSoakChordBounded(t *testing.T) {
	runCrashRestartSoak(t, placement.StrategyChordBounded)
}

func runCrashRestartSoak(t *testing.T, strategy string) {
	cn, err := NewMemNetwork(ChaosConfig{
		Drop:      0.30,
		Duplicate: 0.10,
		MaxDelay:  20 * time.Millisecond,
		Seed:      23,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrapStrategy(t, 5, strategy)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	dir := t.TempDir()

	journals := make([]*journal.ChaosJournal, len(ids))
	openJournal := func(i int) {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			t.Fatalf("node %d: open journal: %v", i, err)
		}
		journals[i] = journal.NewChaos(j, 100+uint64(i))
	}
	startNode := func(i int) *Runtime {
		rt, err := Start(Config{
			ID:                ids[i],
			Members:           ids,
			Snapshot:          snapshot,
			Strategy:          strategy,
			Controller:        anu.DefaultControllerConfig(),
			RoundInterval:     50 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			FailAfter:         150 * time.Millisecond,
			ReportGrace:       30 * time.Millisecond,
			Observe:           closedLoopObserve(speeds),
			Journal:           journals[i],
		}, cn.Endpoint(ids[i]))
		if err != nil {
			t.Fatalf("node %d: start: %v", i, err)
		}
		return rt
	}

	rts := make([]*Runtime, len(ids))
	fm := newFenceMonitor(t)
	for i := range ids {
		openJournal(i)
		rts[i] = startNode(i)
		fm.attach(rts[i], 0, 0)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()

	// crashRestart kills node i, optionally damages its journal tail the
	// way the interrupted process would have (torn write, short write,
	// bit flip), reopens the journal, and restarts the process from it.
	var faultsInjected uint64
	crashRestart := func(i int, damageTail bool) {
		fm.detach(ids[i])
		rts[i].Stop()
		durable, hadDurable := journals[i].Last()
		var injected bool
		if damageTail {
			kind, ok, err := journals[i].InjectTailFault()
			if err != nil {
				t.Fatalf("node %d: inject %v: %v", i, kind, err)
			}
			injected = ok
			if ok {
				faultsInjected++
			}
		}
		if err := journals[i].Close(); err != nil {
			t.Fatalf("node %d: close journal: %v", i, err)
		}

		openJournal(i)
		rec, ok := journals[i].Last()
		if hadDurable {
			if !injected {
				// A clean shutdown loses nothing: the reopened journal
				// holds exactly the record that was durable at the kill.
				if !ok || rec.Epoch != durable.Epoch || rec.Round != durable.Round || !bytes.Equal(rec.Map, durable.Map) {
					t.Fatalf("node %d: clean reopen lost state: had (%d,%d), recovered ok=%v (%d,%d)",
						i, durable.Epoch, durable.Round, ok, rec.Epoch, rec.Round)
				}
			} else if ok && pairLess(durable.Epoch, durable.Round, rec.Epoch, rec.Round) {
				// A damaged tail may roll back to an older record (or to
				// none) — but recovery must never invent newer state.
				t.Fatalf("node %d: recovery invented (%d,%d) beyond durable (%d,%d)",
					i, rec.Epoch, rec.Round, durable.Epoch, durable.Round)
			}
		}

		rts[i] = startNode(i)
		s := rts[i].Stats()
		if ok {
			if !s.Recovered || s.RecoveredEpoch != rec.Epoch || s.RecoveredRound != rec.Round {
				t.Fatalf("node %d: restart did not resume from journal: stats=%+v journal=(%d,%d)",
					i, s, rec.Epoch, rec.Round)
			}
			if s.MapEpoch != rec.Epoch || s.MapRound != rec.Round {
				t.Fatalf("node %d: restart fence (%d,%d), journal (%d,%d)",
					i, s.MapEpoch, s.MapRound, rec.Epoch, rec.Round)
			}
			fm.attach(rts[i], rec.Epoch, rec.Round)
		} else {
			if s.Recovered {
				t.Fatalf("node %d: empty journal but stats claim recovery: %+v", i, s)
			}
			fm.attach(rts[i], 0, 0)
		}
	}

	// Chaotic steady state, then a kill/restart schedule that covers the
	// delegate (node 0), a follower, and a repeat victim — with and
	// without tail damage.
	time.Sleep(1200 * time.Millisecond)
	crashRestart(0, true) // the delegate, with a damaged tail
	time.Sleep(700 * time.Millisecond)
	crashRestart(2, false) // a follower, clean kill
	time.Sleep(700 * time.Millisecond)
	crashRestart(3, true) // another follower, damaged tail
	time.Sleep(700 * time.Millisecond)
	crashRestart(0, true) // the delegate again — second generation
	time.Sleep(700 * time.Millisecond)

	// Calm the network and require full reconvergence.
	if err := cn.SetConfig(ChaosConfig{MaxDelay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "post-crash reconvergence", func() bool {
		if !converged(rts) {
			return false
		}
		e := rts[0].MapEpoch()
		for _, rt := range rts[1:] {
			if rt.MapEpoch() != e {
				return false
			}
		}
		return true
	})
	fm.close()

	p := rts[0].Placement()
	if p.Name() != strategy {
		t.Errorf("converged placement runs strategy %q, want %q", p.Name(), strategy)
	}
	if inv, ok := p.(placement.Invariants); ok {
		if err := inv.CheckInvariants(); err != nil {
			t.Errorf("converged placement violates invariants: %v", err)
		}
	}
	// Every node's journal now holds a converged placement that carries
	// the right strategy tag, decodes, and satisfies the same invariants
	// — durability covers the final state, not just intermediate rounds.
	for i := range ids {
		rec, ok := journals[i].Last()
		if !ok {
			t.Errorf("node %d: no journaled record after soak", i)
			continue
		}
		if tag, err := placement.Tag(rec.Map); err != nil || tag != strategy {
			t.Errorf("node %d: journaled placement tag (%q, %v), want %q", i, tag, err, strategy)
			continue
		}
		jp, err := placement.Decode(rec.Map, placement.Options{})
		if err != nil {
			t.Errorf("node %d: journaled placement does not decode: %v", i, err)
			continue
		}
		if inv, ok := jp.(placement.Invariants); ok {
			if err := inv.CheckInvariants(); err != nil {
				t.Errorf("node %d: journaled placement violates invariants: %v", i, err)
			}
		}
	}
	// The chaos and the faults actually happened.
	if st := cn.Stats(); st.Dropped == 0 {
		t.Errorf("network chaos implausible: %+v", st)
	}
	if faultsInjected == 0 {
		t.Error("no journal faults were injected")
	}
	for i := range ids {
		journals[i].Close()
	}

	// Surface each node's latency tails so soak logs show distributions,
	// not just counters.
	for i := range ids {
		t.Logf("soak summary: %s", rts[i].Stats())
	}
}

// TestJournalRestartResumesFromRecoveredPlacement is the focused
// regression for journal recovery: a runtime restarted with its journal
// must resume from the journaled placement, epoch and round — not from
// Config.Snapshot — while a journal-less restart still bootstraps from
// the snapshot.
func TestJournalRestartResumesFromRecoveredPlacement(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	walPath := filepath.Join(t.TempDir(), "node2.wal")
	j, err := journal.Open(walPath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rts := make([]*Runtime, len(ids))
	for i, id := range ids {
		cfg := Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: 40 * time.Millisecond,
			Observe:       closedLoopObserve(speeds),
		}
		if id == 2 {
			cfg.Journal = j
		}
		rts[i], err = Start(cfg, cn.Endpoint(id))
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, rt := range rts {
			if rt != nil {
				rt.Stop()
			}
		}
	}()
	waitFor(t, 15*time.Second, "initial convergence", func() bool {
		return converged(rts) && rts[2].MapRound() >= 3
	})
	preFence := [2]uint64{rts[2].MapEpoch(), rts[2].MapRound()}
	preMap := rts[2].Snapshot()
	rts[2].Stop()
	rts[2] = nil

	// A real restart reopens the journal from disk: recovery must replay
	// the appended records.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = journal.Open(walPath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec, ok := j.Last()
	if !ok {
		t.Fatal("journal empty after convergence")
	}
	if rec.Epoch != preFence[0] || rec.Round != preFence[1] || !bytes.Equal(rec.Map, preMap) {
		t.Fatalf("journal (%d,%d) does not match installed fence (%d,%d)", rec.Epoch, rec.Round, preFence[0], preFence[1])
	}

	// Restart on an isolated network so nothing can overwrite the
	// recovered state before we inspect it.
	lonely, err := NewMemNetwork(ChaosConfig{Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lonely.Close()
	restarted, err := Start(Config{
		ID:            2,
		Members:       ids,
		Snapshot:      snapshot,
		Controller:    anu.DefaultControllerConfig(),
		RoundInterval: 40 * time.Millisecond,
		Observe:       closedLoopObserve(speeds),
		Journal:       j,
	}, lonely.Endpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Stop()
	s := restarted.Stats()
	if !s.Recovered || s.RecoveredEpoch != preFence[0] || s.RecoveredRound != preFence[1] {
		t.Fatalf("restart stats %+v, want recovery at (%d,%d)", s, preFence[0], preFence[1])
	}
	if got := restarted.Snapshot(); !bytes.Equal(got, preMap) {
		t.Fatal("restarted runtime did not resume from the journaled placement")
	}
	if bytes.Equal(restarted.Snapshot(), snapshot) {
		t.Fatal("restarted runtime is still on the bootstrap snapshot")
	}
	if s.Journal.RecordsRecovered == 0 {
		t.Fatalf("journal stats missing from runtime snapshot: %+v", s.Journal)
	}

	// Control: without a journal the restart bootstraps from Snapshot.
	plain, err := Start(Config{
		ID:            1,
		Members:       ids,
		Snapshot:      snapshot,
		Controller:    anu.DefaultControllerConfig(),
		RoundInterval: 40 * time.Millisecond,
	}, lonely.Endpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Stop()
	if s := plain.Stats(); s.Recovered || s.MapEpoch != 0 || s.MapRound != 0 {
		t.Fatalf("journal-less restart claims recovery: %+v", s)
	}
	if !bytes.Equal(plain.Snapshot(), snapshot) {
		t.Fatal("journal-less restart is not on the bootstrap snapshot")
	}
}

// TestStartRejectsStrategyTagMismatch covers the placement layer's
// recovery contract: a node never silently adopts a placement from a
// different strategy. Both boundaries — the bootstrap snapshot and a
// journal-recovered record — must fail Start loudly on a tag mismatch.
func TestStartRejectsStrategyTagMismatch(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 11}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, anuSnap := bootstrap(t, 3)
	_, chordSnap := bootstrapStrategy(t, 3, placement.StrategyChordBounded)

	// Bootstrap snapshot carrying a different strategy's tag.
	_, err = Start(Config{
		ID:            0,
		Members:       ids,
		Snapshot:      anuSnap,
		Strategy:      placement.StrategyChordBounded,
		RoundInterval: 40 * time.Millisecond,
	}, cn.Endpoint(0))
	if err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("mismatched bootstrap snapshot accepted: %v", err)
	}

	// Journal-recovered placement carrying a different strategy's tag:
	// the operator changed Config.Strategy without wiping durable state.
	j, err := journal.Open(filepath.Join(t.TempDir(), "node.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(journal.Record{Epoch: 1, Round: 2, Map: chordSnap}); err != nil {
		t.Fatal(err)
	}
	_, err = Start(Config{
		ID:            1,
		Members:       ids,
		Snapshot:      anuSnap, // matches the default "anu" strategy
		RoundInterval: 40 * time.Millisecond,
		Journal:       j,
	}, cn.Endpoint(1))
	if err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("mismatched journaled placement accepted: %v", err)
	}
	// The matching journal is fine: same config, journal rewritten with
	// an ANU record.
	j2, err := journal.Open(filepath.Join(t.TempDir(), "node2.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Append(journal.Record{Epoch: 1, Round: 2, Map: anuSnap}); err != nil {
		t.Fatal(err)
	}
	rt, err := Start(Config{
		ID:            1,
		Members:       ids,
		Snapshot:      anuSnap,
		RoundInterval: 40 * time.Millisecond,
		Journal:       j2,
	}, cn.Endpoint(1))
	if err != nil {
		t.Fatalf("matching journaled placement rejected: %v", err)
	}
	rt.Stop()
}

// TestObserverMayCallRuntime is the regression test for the documented
// ObserveFunc footgun: observers are now invoked without the runtime
// lock, so one that calls back into Stats and the lookup path must not
// deadlock — on either the delegate's self-sample path or a follower's
// round-gossip report path.
func TestObserverMayCallRuntime(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 2)
	var holders [2]atomic.Pointer[Runtime]
	var reentries atomic.Uint64
	observe := func(p placement.Strategy, id delegate.NodeID) (uint64, float64) {
		if rt := holders[id].Load(); rt != nil {
			s := rt.Stats() // deadlocked under the old lock-held contract
			if _, ok := rt.Lookup("reentrant-probe"); !ok {
				return 0, 0
			}
			reentries.Add(1)
			_ = s
		}
		share := p.Shares()[id]
		return uint64(1 + 100*share), 0.002 + share
	}
	rts := make([]*Runtime, len(ids))
	for i, id := range ids {
		rts[i], err = Start(Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: 30 * time.Millisecond,
			Observe:       observe,
		}, cn.Endpoint(id))
		if err != nil {
			t.Fatal(err)
		}
		holders[id].Store(rts[i])
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	// Both the delegate (self-sample in tick) and the follower (report
	// on round gossip in handle) must keep making protocol progress
	// while their observers re-enter the runtime.
	waitFor(t, 15*time.Second, "progress with reentrant observers", func() bool {
		return reentries.Load() >= 4 &&
			rts[0].Stats().Tunes >= 2 &&
			rts[1].Stats().ReportsSent >= 2 &&
			rts[1].MapRound() > 0
	})
}

// TestCompactionAcrossStrategyChangeRefusesMismatchedTail covers the
// interaction of two durability features: journal compaction and the
// strategy-tag fence on recovery. A journal whose records span a
// strategy change (ANU epochs followed by a chord-bounded epoch) is
// compacted down to its single newest record; the surviving tail still
// carries the newer strategy's tag, so a restart configured for the
// old strategy must refuse it just as loudly as it would refuse the
// full journal — compaction must never launder a mismatched placement
// into an adoptable one. A matching restart then recovers the
// compacted record, and a crash that tears the lone surviving frame
// degrades to a clean snapshot bootstrap.
func TestCompactionAcrossStrategyChangeRefusesMismatchedTail(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, anuSnap := bootstrap(t, 3)
	_, chordSnap := bootstrapStrategy(t, 3, placement.StrategyChordBounded)

	// A tiny threshold forces a compaction on every append past the
	// first, so the strategy-change record is guaranteed to cross one.
	walPath := filepath.Join(t.TempDir(), "node.wal")
	j, err := journal.Open(walPath, journal.Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 3; round++ {
		if err := j.Append(journal.Record{Epoch: 1, Round: round, Map: anuSnap}); err != nil {
			t.Fatal(err)
		}
	}
	// The operator migrated the cluster to chord-bounded: a newer epoch
	// journals a placement with a different strategy tag.
	if err := j.Append(journal.Record{Epoch: 2, Round: 1, Map: chordSnap}); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Compactions == 0 {
		t.Fatalf("no compactions at threshold 64 after 4 appends: %+v", s)
	}

	// Restart: recovery must see exactly the compacted tail — one
	// record, tagged with the post-change strategy.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = journal.Open(walPath, journal.Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if s := j.Stats(); s.RecordsRecovered != 1 {
		t.Fatalf("recovered %d records from compacted journal, want 1", s.RecordsRecovered)
	}
	rec, ok := j.Last()
	if !ok {
		t.Fatal("compacted journal empty on reopen")
	}
	if rec.Epoch != 2 || rec.Round != 1 {
		t.Fatalf("compaction kept (%d,%d), want the newest fence (2,1)", rec.Epoch, rec.Round)
	}
	if tag, err := placement.Tag(rec.Map); err != nil || tag != placement.StrategyChordBounded {
		t.Fatalf("surviving record tag = (%q, %v), want %q", tag, err, placement.StrategyChordBounded)
	}

	// A node still configured for the pre-change strategy must refuse
	// the compacted tail.
	_, err = Start(Config{
		ID:            0,
		Members:       ids,
		Snapshot:      anuSnap, // matches the default "anu" strategy
		RoundInterval: 40 * time.Millisecond,
		Journal:       j,
	}, cn.Endpoint(0))
	if err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("compacted mismatched journal accepted: %v", err)
	}

	// The migrated configuration recovers the compacted record.
	rt, err := Start(Config{
		ID:            1,
		Members:       ids,
		Snapshot:      chordSnap,
		Strategy:      placement.StrategyChordBounded,
		RoundInterval: 40 * time.Millisecond,
		Journal:       j,
	}, cn.Endpoint(1))
	if err != nil {
		t.Fatalf("matching strategy rejected its own compacted journal: %v", err)
	}
	if s := rt.Stats(); !s.Recovered || s.RecoveredEpoch != 2 || s.RecoveredRound != 1 {
		rt.Stop()
		t.Fatalf("restart stats %+v, want recovery at (2,1)", s)
	}
	rt.Stop()

	// Crash damage on the lone surviving frame: recovery truncates the
	// tail and the restart falls back to a clean snapshot bootstrap —
	// there is no older intact record to resurrect the stale strategy.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := journal.Open(walPath, journal.Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	cj := journal.NewChaos(raw, 33)
	if _, ok, err := cj.InjectTailFault(); err != nil || !ok {
		t.Fatalf("tail fault injection: ok=%v err=%v", ok, err)
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = journal.Open(walPath, journal.Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if s := raw.Stats(); s.TornTailsTruncated == 0 {
		t.Fatalf("injected fault not detected on reopen: %+v", s)
	}
	if _, ok := raw.Last(); ok {
		t.Fatal("damaged single-record journal still yields a record")
	}
	rt2, err := Start(Config{
		ID:            2,
		Members:       ids,
		Snapshot:      anuSnap,
		Controller:    anu.DefaultControllerConfig(),
		RoundInterval: 40 * time.Millisecond,
		Journal:       raw,
	}, cn.Endpoint(2))
	if err != nil {
		t.Fatalf("empty-after-truncation journal rejected: %v", err)
	}
	defer rt2.Stop()
	if s := rt2.Stats(); s.Recovered {
		t.Fatalf("restart claims recovery from a truncated-empty journal: %+v", s)
	}
	if !bytes.Equal(rt2.Snapshot(), anuSnap) {
		t.Fatal("restart did not bootstrap from the snapshot")
	}
}
