package cluster

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
	"anurand/internal/migrate"
	"anurand/internal/placement"
)

// lookupHammer drives continuous lookups against every runtime from
// its own goroutine and fails the run on the first lookup that does
// not resolve to a valid server — the zero-dropped-lookups assertion
// behind every migration test. Each iteration also checks that the
// runtime's strategy is one of the allowed tags: during a live
// migration every node serves either the old or the new placement,
// never anything else.
type lookupHammer struct {
	stop chan struct{}
	errs chan error
	wg   sync.WaitGroup
	n    atomic.Uint64
}

func startLookupHammer(rts []*Runtime, members int, allowed ...string) *lookupHammer {
	h := &lookupHammer{
		stop: make(chan struct{}),
		errs: make(chan error, len(rts)),
	}
	ok := make(map[string]bool, len(allowed))
	for _, tag := range allowed {
		ok[tag] = true
	}
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data", "/tmp/x"}
	for i, rt := range rts {
		h.wg.Add(1)
		go func(i int, rt *Runtime) {
			defer h.wg.Done()
			owners := make([]anu.ServerID, len(keys))
			for n := 0; ; n++ {
				select {
				case <-h.stop:
					return
				default:
				}
				// Pace the hammer: an unthrottled spin loop starves the
				// runtime goroutines on small CI machines, stalling the
				// very rounds the test is asserting about.
				time.Sleep(500 * time.Microsecond)
				key := keys[n%len(keys)]
				owner, found := rt.Lookup(key)
				if !found || owner < 0 || int(owner) >= members {
					h.errs <- fmt.Errorf("node %d: Lookup(%q) = (%d, %v)", i, key, owner, found)
					return
				}
				if got := rt.LookupBatch(keys, owners); got != len(keys) {
					h.errs <- fmt.Errorf("node %d: batch resolved %d/%d", i, got, len(keys))
					return
				}
				if tag := rt.Strategy(); !ok[tag] {
					h.errs <- fmt.Errorf("node %d: serving strategy %q, allowed %v", i, tag, allowed)
					return
				}
				h.n.Add(1)
			}
		}(i, rt)
	}
	return h
}

// check fails the test on any hammer error observed so far.
func (h *lookupHammer) check(t *testing.T) {
	t.Helper()
	select {
	case err := <-h.errs:
		t.Fatal(err)
	default:
	}
}

// close stops the hammer and returns the total lookups served.
func (h *lookupHammer) close(t *testing.T) uint64 {
	t.Helper()
	close(h.stop)
	h.wg.Wait()
	h.check(t)
	return h.n.Load()
}

// waitDelegate blocks until some runtime considers itself the elected
// delegate and returns it.
func waitDelegate(t *testing.T, rts []*Runtime) *Runtime {
	t.Helper()
	var del *Runtime
	waitFor(t, 15*time.Second, "delegate election", func() bool {
		for _, rt := range rts {
			if rt.Delegate() == rt.ID() {
				del = rt
				return true
			}
		}
		return false
	})
	return del
}

// TestConfigValidation covers the timing-knob validation at Start:
// negative durations and impossible quorums are config errors, never
// spinning tickers or hung phases.
func TestConfigValidation(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	base := func() Config {
		return Config{
			ID: 0, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: time.Second,
		}
	}
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero RoundInterval", func(c *Config) { c.RoundInterval = 0 }},
		{"negative RoundInterval", func(c *Config) { c.RoundInterval = -time.Second }},
		{"negative HeartbeatInterval", func(c *Config) { c.HeartbeatInterval = -time.Millisecond }},
		{"negative FailAfter", func(c *Config) { c.FailAfter = -time.Second }},
		{"negative MigrateTimeout", func(c *Config) { c.MigrateTimeout = -time.Second }},
		{"negative MigrateRetry", func(c *Config) { c.MigrateRetry = -time.Millisecond }},
		{"negative Quorum", func(c *Config) { c.Quorum = -1 }},
		{"quorum beyond members", func(c *Config) { c.Quorum = len(ids) + 1 }},
	}
	for i, tc := range bad {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := Start(cfg, cn.Endpoint(delegate.NodeID(60+i))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The zero values still mean "default", not an error.
	cfg := base()
	rt, err := Start(cfg, cn.Endpoint(0))
	if err != nil {
		t.Fatalf("defaulted config rejected: %v", err)
	}
	rt.Stop()
}

// TestMigrateSingleNode is the smallest end-to-end cutover: with a
// one-member quorum the whole state machine — propose, warm, dual-tag,
// epoch-fenced commit — runs synchronously inside Migrate.
func TestMigrateSingleNode(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 1)
	walPath := filepath.Join(t.TempDir(), "node0.wal")
	j, err := journal.Open(walPath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rt, err := Start(Config{
		ID: 0, Members: ids, Snapshot: snapshot,
		Controller: anu.DefaultControllerConfig(), RoundInterval: 20 * time.Millisecond,
		Journal: j, Logf: t.Logf,
	}, cn.Endpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitFor(t, 10*time.Second, "self-election", func() bool { return rt.Delegate() == 0 })

	epochBefore := rt.MapEpoch()
	id, err := rt.Migrate(placement.StrategyChordBounded)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("migration id is zero")
	}
	if got := rt.Strategy(); got != placement.StrategyChordBounded {
		t.Fatalf("strategy %q after Migrate, want %q", got, placement.StrategyChordBounded)
	}
	if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
		t.Fatalf("phase %s after synchronous cutover, want idle", phase)
	}
	if rt.MapEpoch() <= epochBefore {
		t.Errorf("commit did not bump the install epoch: %d -> %d", epochBefore, rt.MapEpoch())
	}
	s := rt.Stats()
	if s.MigrationsStarted != 1 || s.MigrationsCommitted != 1 || s.MigrationsAborted != 0 {
		t.Errorf("migration counters started=%d committed=%d aborted=%d, want 1/1/0",
			s.MigrationsStarted, s.MigrationsCommitted, s.MigrationsAborted)
	}
	// The journal's tail records the cutover durably: the newest
	// migration record is Committed and the newest placement carries
	// the target tag.
	mrec, ok := j.LastMigration()
	if !ok {
		t.Fatal("no migration record journaled")
	}
	mr, err := migrate.Decode(mrec.Map)
	if err != nil || mr.Phase != migrate.Committed {
		t.Fatalf("journaled migration record (%+v, %v), want Committed", mr, err)
	}
	prec, ok := j.LastPlacement()
	if !ok {
		t.Fatal("no placement record journaled")
	}
	if tag, _ := placement.Tag(prec.Map); tag != placement.StrategyChordBounded {
		t.Fatalf("journaled placement tag %q, want %q", tag, placement.StrategyChordBounded)
	}
	// A second migration returns home.
	if _, err := rt.Migrate(placement.StrategyANU); err != nil {
		t.Fatal(err)
	}
	if got := rt.Strategy(); got != placement.StrategyANU {
		t.Fatalf("strategy %q after return migration, want %q", got, placement.StrategyANU)
	}
}

// holdJournal holds the first migration-record Append until another
// Append arrives or 200 ms pass, so any flush that can run beside
// Migrate's gets in between its records.
type holdJournal struct {
	*journal.Journal
	mu   sync.Mutex
	held chan struct{} // open while the first migration record waits
}

func (h *holdJournal) Append(rec journal.Record) error {
	h.mu.Lock()
	var wait chan struct{}
	switch {
	case h.held == nil && migrate.IsRecord(rec.Map):
		h.held = make(chan struct{})
		wait = h.held
	case h.held != nil:
		select {
		case <-h.held:
		default:
			close(h.held)
		}
	}
	h.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return h.Journal.Append(rec)
}

// TestMigrateJournalOrder pins the journal order of a migration: with
// Migrate's first record held back, a concurrent flush of a newer
// placement would make Append's monotone guard drop every record
// Migrate staged. The journal must still end with the Committed record
// and a placement carrying the target tag.
func TestMigrateJournalOrder(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 1)
	j, err := journal.Open(filepath.Join(t.TempDir(), "node0.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rt, err := Start(Config{
		ID: 0, Members: ids, Snapshot: snapshot,
		Controller: anu.DefaultControllerConfig(), RoundInterval: 20 * time.Millisecond,
		Journal: &holdJournal{Journal: j}, Logf: t.Logf,
	}, cn.Endpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitFor(t, 10*time.Second, "self-election", func() bool { return rt.Delegate() == 0 })
	if _, err := rt.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	mrec, ok := j.LastMigration()
	if !ok {
		t.Fatal("no migration record journaled")
	}
	if mr, err := migrate.Decode(mrec.Map); err != nil || mr.Phase != migrate.Committed {
		t.Fatalf("journaled migration record (%+v, %v), want Committed", mr, err)
	}
	prec, ok := j.LastPlacement()
	if !ok {
		t.Fatal("no placement record journaled")
	}
	if tag, _ := placement.Tag(prec.Map); tag != placement.StrategyChordBounded {
		t.Fatalf("journaled placement tag %q, want %q", tag, placement.StrategyChordBounded)
	}
}

// TestMigrateValidation covers Migrate's refusals: unknown target,
// no-op target, follower callers, and double starts.
func TestMigrateValidation(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		var tr Transport = cn.Endpoint(id)
		if id != 0 {
			// Followers accept proposals but their acks vanish, so a
			// started migration stays in flight for the double-start case.
			tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
				return m.Kind == MsgMigrateAck
			}}
		}
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 25 * time.Millisecond,
			MigrateTimeout: 10 * time.Second, Observe: closedLoopObserve(speeds),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	del := waitDelegate(t, rts)
	if del.ID() != 0 {
		t.Fatalf("delegate %d, want 0", del.ID())
	}
	if _, err := rts[1].Migrate(placement.StrategyChordBounded); err == nil {
		t.Error("follower accepted Migrate")
	}
	if _, err := del.Migrate("no-such-strategy"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := del.Migrate(placement.StrategyANU); err == nil {
		t.Error("migration to the current strategy accepted")
	}
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatalf("valid migration refused: %v", err)
	}
	if _, err := del.Migrate(placement.StrategyChord); err == nil {
		t.Error("second migration accepted while one is in flight")
	}
}

// TestMigrateHappyPath is the three-node live cutover: ANU to the
// bounded-load chord ring under continuous lookups. Every node must
// flip atomically to the target, no lookup may ever fail, tuning must
// continue on the new strategy, and every journal must end with the
// Committed record and a target-tagged placement.
func TestMigrateHappyPath(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 7, MaxDelay: 2 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	dir := t.TempDir()
	journals := make([]*journal.Journal, len(ids))
	rts := make([]*Runtime, len(ids))
	for i, id := range ids {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = j
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 400 * time.Millisecond,
			WatchdogRounds: 10, MigrateTimeout: 8 * time.Second, MigrateRetry: 80 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Journal: j, Logf: t.Logf,
		}, cn.Endpoint(id))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	defer func() {
		for i, rt := range rts {
			rt.Stop()
			journals[i].Close()
		}
	}()

	waitFor(t, 15*time.Second, "pre-migration convergence", func() bool {
		return converged(rts) && rts[0].Stats().Tunes >= 2
	})
	hammer := startLookupHammer(rts, len(ids), placement.StrategyANU, placement.StrategyChordBounded)

	del := waitDelegate(t, rts)
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "cluster-wide cutover", func() bool {
		hammer.check(t)
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
	// Tuning continues on the new strategy: rounds keep installing maps.
	tunesAtFlip := del.Stats().Tunes
	waitFor(t, 15*time.Second, "post-migration tuning", func() bool {
		hammer.check(t)
		return del.Stats().Tunes >= tunesAtFlip+2 && converged(rts)
	})
	if n := hammer.close(t); n == 0 {
		t.Fatal("lookup hammer never ran")
	}

	for i, rt := range rts {
		s := rt.Stats()
		if s.MigrationsCommitted < 1 {
			t.Errorf("node %d: no committed migration in stats: %s", i, s)
		}
		mrec, ok := journals[i].LastMigration()
		if !ok {
			t.Errorf("node %d: no journaled migration record", i)
			continue
		}
		if mr, err := migrate.Decode(mrec.Map); err != nil || mr.Phase != migrate.Committed {
			t.Errorf("node %d: journaled migration (%+v, %v), want Committed", i, mr, err)
		}
		prec, ok := journals[i].LastPlacement()
		if !ok {
			t.Errorf("node %d: no journaled placement", i)
			continue
		}
		if tag, _ := placement.Tag(prec.Map); tag != placement.StrategyChordBounded {
			t.Errorf("node %d: journaled placement tag %q", i, tag)
		}
	}
	// The leader observed the epoch fence: the commit bumped the
	// install epoch past the pre-migration one.
	if s := del.Stats(); s.MigrationsStarted != 1 {
		t.Errorf("leader started %d migrations, want 1", s.MigrationsStarted)
	}
}

// TestMigrateWeightsSurviveCutover is the weight-aware acceptance path:
// the leader carries a-priori capacity weights in its Config, migrates
// the live cluster from ANU to weighted rendezvous hashing, and the
// weights must arrive everywhere through the bytes alone — the
// followers are configured WITHOUT weights, so everything they serve
// and journal was learned from the leader's warm snapshot. A follower
// restart from its journal must come back weighted too.
func TestMigrateWeightsSurviveCutover(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 11, MaxDelay: 2 * time.Millisecond}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	weights := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	dir := t.TempDir()
	journals := make([]*journal.Journal, len(ids))
	rts := make([]*Runtime, len(ids))
	openJournal := func(i int) {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = j
	}
	startNode := func(i int) {
		cfg := Config{
			ID: ids[i], Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 400 * time.Millisecond,
			WatchdogRounds: 10, MigrateTimeout: 8 * time.Second, MigrateRetry: 80 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Journal: journals[i], Logf: t.Logf,
		}
		if i == 0 {
			// Only the leader knows the capacities a priori.
			cfg.Weights = weights
		}
		rt, err := Start(cfg, cn.Endpoint(ids[i]))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	for i := range ids {
		openJournal(i)
		startNode(i)
	}
	defer func() {
		for i, rt := range rts {
			rt.Stop()
			journals[i].Close()
		}
	}()

	waitFor(t, 15*time.Second, "pre-migration convergence", func() bool {
		return converged(rts) && rts[0].Stats().Tunes >= 1
	})
	hammer := startLookupHammer(rts, len(ids), placement.StrategyANU, placement.StrategyRendezvous)
	del := waitDelegate(t, rts)
	if del.ID() != 0 {
		t.Fatalf("delegate %d, want 0 (the weighted config)", del.ID())
	}
	if _, err := del.Migrate(placement.StrategyRendezvous); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "cluster-wide weighted cutover", func() bool {
		hammer.check(t)
		for _, rt := range rts {
			if rt.Strategy() != placement.StrategyRendezvous {
				return false
			}
			if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
				return false
			}
		}
		return true
	})
	// Keep serving across a couple of post-cutover tuning rounds: the
	// weighted strategy must survive feedback, not just the install.
	tunesAtFlip := del.Stats().Tunes
	waitFor(t, 15*time.Second, "post-migration tuning", func() bool {
		hammer.check(t)
		return del.Stats().Tunes >= tunesAtFlip+2
	})
	hammer.close(t)

	wantWeights := func(ctx string, s placement.Strategy) {
		t.Helper()
		rw, ok := s.(placement.Reweigher)
		if !ok {
			t.Fatalf("%s: strategy %q has no weights", ctx, s.Name())
		}
		got := rw.Weights()
		for id, w := range weights {
			if got[id] != w {
				t.Errorf("%s: weight[%d] = %g, want %g", ctx, id, got[id], w)
			}
		}
	}
	for i, rt := range rts {
		// The live placement each node serves carries the leader's weights.
		wantWeights(fmt.Sprintf("node %d live", i), rt.Placement())
		// And so does the placement each node journaled.
		prec, ok := journals[i].LastPlacement()
		if !ok {
			t.Fatalf("node %d: no journaled placement", i)
		}
		if tag, _ := placement.Tag(prec.Map); tag != placement.StrategyRendezvous {
			t.Fatalf("node %d: journaled placement tag %q", i, tag)
		}
		dec, err := placement.Decode(prec.Map, placement.Options{})
		if err != nil {
			t.Fatalf("node %d: journaled placement undecodable: %v", i, err)
		}
		wantWeights(fmt.Sprintf("node %d journal", i), dec)
	}

	// Restart follower 2 from its journal, weightless config and all:
	// the recovered placement must still be weighted rendezvous.
	const victim = 2
	rts[victim].Stop()
	if err := journals[victim].Close(); err != nil {
		t.Fatal(err)
	}
	openJournal(victim)
	startNode(victim)
	if got := rts[victim].Strategy(); got != placement.StrategyRendezvous {
		t.Fatalf("restarted node boots strategy %q, want %q", got, placement.StrategyRendezvous)
	}
	wantWeights("restarted node", rts[victim].Placement())
	waitFor(t, 15*time.Second, "post-restart reconvergence", func() bool {
		return converged(rts)
	})
}

// TestMigrateAbortOnTimeout: the leader's proposals go unacknowledged
// (the followers' acks are dropped), so the Proposed phase times out
// and rolls back — the leader stays on the old strategy, broadcasts
// the abort, and the followers close out too.
func TestMigrateAbortOnTimeout(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		var tr Transport = cn.Endpoint(id)
		if id != 0 {
			tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
				return m.Kind == MsgMigrateAck
			}}
		}
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 400 * time.Millisecond,
			WatchdogRounds: 10, MigrateTimeout: 300 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Logf: t.Logf,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	del := waitDelegate(t, rts)
	hammer := startLookupHammer(rts, len(ids), placement.StrategyANU, placement.StrategyChordBounded)
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "timeout rollback", func() bool {
		hammer.check(t)
		if s := del.Stats(); s.MigrationsAborted != 1 {
			return false
		}
		for _, rt := range rts {
			if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
				return false
			}
		}
		return true
	})
	hammer.close(t)
	for i, rt := range rts {
		if got := rt.Strategy(); got != placement.StrategyANU {
			t.Errorf("node %d: strategy %q after rollback, want %q", i, got, placement.StrategyANU)
		}
	}
	// The cluster still tunes after the rollback.
	tunes := del.Stats().Tunes
	waitFor(t, 10*time.Second, "post-rollback tuning", func() bool {
		return del.Stats().Tunes >= tunes+2
	})
}

// TestMigrateAbortOnReelection: the leader dies mid-migration. The
// followers observe the re-election away from the proposer and roll
// back on their own — no phase is allowed to outlive its leader.
func TestMigrateAbortOnReelection(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		var tr Transport = cn.Endpoint(id)
		if id == 0 {
			// The leader's warm snapshots vanish: the migration cannot
			// advance past Proposed on the followers, pinning the state
			// we want the crash to interrupt.
			tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
				return m.Kind == MsgMigrateWarm
			}}
		}
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 150 * time.Millisecond,
			WatchdogRounds: 10, MigrateTimeout: 10 * time.Second,
			Observe: closedLoopObserve(speeds), Logf: t.Logf,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	defer func() {
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	del := waitDelegate(t, rts)
	if del.ID() != 0 {
		t.Fatalf("delegate %d, want 0", del.ID())
	}
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	// Let the proposal reach the followers, then kill the leader.
	waitFor(t, 10*time.Second, "followers tracking the proposal", func() bool {
		for _, rt := range rts[1:] {
			if phase, _ := rt.MigrationPhase(); phase == migrate.Idle {
				return false
			}
		}
		return true
	})
	followers := rts[1:]
	hammer := startLookupHammer(followers, len(ids), placement.StrategyANU, placement.StrategyChordBounded)
	del.Stop()
	waitFor(t, 15*time.Second, "follower rollback on re-election", func() bool {
		hammer.check(t)
		for _, rt := range followers {
			s := rt.Stats()
			if s.MigrationsAborted < 1 || s.MigrationPhase != "idle" {
				return false
			}
		}
		return true
	})
	hammer.close(t)
	for i, rt := range followers {
		if got := rt.Strategy(); got != placement.StrategyANU {
			t.Errorf("follower %d: strategy %q after rollback, want %q", i+1, got, placement.StrategyANU)
		}
	}
	// The survivors re-elected and keep making progress on the old
	// strategy.
	waitFor(t, 15*time.Second, "post-crash re-election and tuning", func() bool {
		return followers[0].Delegate() == 1 && followers[0].Stats().Tunes >= 1
	})
}

// TestMigrateJournalResume covers the crash-recovery decision table
// directly, by handing Start hand-built journals:
//
//   - a DualTag tail (behind enough placement churn to force
//     compaction) resumes the phase with the journaled warm snapshot
//     and, with no leader left, rolls back at the deadline;
//   - a Committed tail whose placement carries the target boots the
//     target strategy even though cfg.Strategy names the source;
//   - a Committed tail whose placement append was lost opens a
//     catch-up window and likewise settles by deadline rollback.
func TestMigrateJournalResume(t *testing.T) {
	ids, anuSnap := bootstrap(t, 1)
	_, chordSnap := bootstrapStrategy(t, 1, placement.StrategyChordBounded)

	openWAL := func(t *testing.T, compactThreshold int) (*journal.Journal, string) {
		path := filepath.Join(t.TempDir(), "node.wal")
		j, err := journal.Open(path, journal.Options{CompactThreshold: int64(compactThreshold)})
		if err != nil {
			t.Fatal(err)
		}
		return j, path
	}
	start := func(t *testing.T, j *journal.Journal, strategy string, snapshot []byte) *Runtime {
		cn, err := NewMemNetwork(ChaosConfig{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cn.Close)
		rt, err := Start(Config{
			ID: 0, Members: ids, Snapshot: snapshot, Strategy: strategy,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 20 * time.Millisecond,
			MigrateTimeout: 250 * time.Millisecond, Journal: j, Logf: t.Logf,
		}, cn.Endpoint(0))
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		t.Cleanup(rt.Stop)
		return rt
	}

	t.Run("dual-tag tail resumes and rolls back", func(t *testing.T) {
		// Low threshold so the placement churn after the migration record
		// forces compaction: the in-flight DualTag record (with its warm
		// snapshot) must survive it and still drive recovery.
		j, _ := openWAL(t, 256)
		if err := j.Append(journal.Record{Epoch: 1, Round: 4, Map: anuSnap}); err != nil {
			t.Fatal(err)
		}
		mig := migrate.Record{
			Phase: migrate.DualTag, ID: 77,
			From: placement.StrategyANU, To: placement.StrategyChordBounded,
			Snapshot: chordSnap,
		}
		if err := j.Append(journal.Record{Epoch: 1, Round: 6, Map: mig.Encode()}); err != nil {
			t.Fatal(err)
		}
		for round := uint64(7); round <= 30; round++ {
			if err := j.Append(journal.Record{Epoch: 1, Round: round, Map: anuSnap}); err != nil {
				t.Fatal(err)
			}
		}
		if j.Stats().Compactions == 0 {
			t.Fatal("compaction never ran; raise the churn or lower the threshold")
		}
		rt := start(t, j, placement.StrategyANU, anuSnap)
		if s := rt.Stats(); s.RecoveredMigration != "dual-tag" {
			t.Fatalf("RecoveredMigration = %q, want dual-tag (stats %s)", s.RecoveredMigration, s)
		}
		if phase, id := rt.MigrationPhase(); phase == migrate.DualTag && id != 77 {
			t.Fatalf("resumed phase carries id %d, want 77", id)
		}
		// No leader exists to commit or abort — and this lone node elects
		// itself delegate, so the no-live-proposer watchdog rolls back
		// (possibly before we even observe the resumed phase), windows
		// close, and the rollback is journaled.
		waitFor(t, 10*time.Second, "deadline rollback", func() bool {
			phase, _ := rt.MigrationPhase()
			return phase == migrate.Idle
		})
		if got := rt.Strategy(); got != placement.StrategyANU {
			t.Fatalf("strategy %q after rollback, want anu", got)
		}
		if s := rt.Stats(); s.MigrationsAborted != 1 {
			t.Fatalf("MigrationsAborted = %d, want 1", s.MigrationsAborted)
		}
		waitFor(t, 5*time.Second, "journaled rollback", func() bool {
			rec, ok := j.LastMigration()
			if !ok {
				return false
			}
			mr, err := migrate.Decode(rec.Map)
			return err == nil && mr.Phase == migrate.Aborted && mr.ID == 77
		})
	})

	t.Run("committed tail boots the target strategy", func(t *testing.T) {
		j, _ := openWAL(t, 0)
		if err := j.Append(journal.Record{Epoch: 2, Round: 9, Map: chordSnap}); err != nil {
			t.Fatal(err)
		}
		mig := migrate.Record{
			Phase: migrate.Committed, ID: 78,
			From: placement.StrategyANU, To: placement.StrategyChordBounded,
		}
		if err := j.Append(journal.Record{Epoch: 2, Round: 9, Map: mig.Encode()}); err != nil {
			t.Fatal(err)
		}
		// cfg.Strategy still says "anu" — the journal proves the cutover.
		rt := start(t, j, placement.StrategyANU, anuSnap)
		if got := rt.Strategy(); got != placement.StrategyChordBounded {
			t.Fatalf("booted strategy %q, want %q", got, placement.StrategyChordBounded)
		}
		s := rt.Stats()
		if s.RecoveredMigration != "committed" {
			t.Errorf("RecoveredMigration = %q, want committed", s.RecoveredMigration)
		}
		if !s.Recovered || s.RecoveredEpoch != 2 || s.RecoveredRound != 9 {
			t.Errorf("recovered fence (%v, %d, %d), want (true, 2, 9)", s.Recovered, s.RecoveredEpoch, s.RecoveredRound)
		}
		if phase, _ := rt.MigrationPhase(); phase != migrate.Idle {
			t.Errorf("phase %s after committed recovery, want idle", phase)
		}
	})

	t.Run("committed tail without placement opens catch-up", func(t *testing.T) {
		j, _ := openWAL(t, 0)
		if err := j.Append(journal.Record{Epoch: 3, Round: 4, Map: anuSnap}); err != nil {
			t.Fatal(err)
		}
		mig := migrate.Record{
			Phase: migrate.Committed, ID: 79,
			From: placement.StrategyANU, To: placement.StrategyChordBounded,
		}
		if err := j.Append(journal.Record{Epoch: 4, Round: 5, Map: mig.Encode()}); err != nil {
			t.Fatal(err)
		}
		rt := start(t, j, placement.StrategyANU, anuSnap)
		// The commit was decided but the new placement never persisted:
		// the node serves the old strategy through a catch-up window and,
		// alone, settles by rollback at the deadline.
		if got := rt.Strategy(); got != placement.StrategyANU {
			t.Fatalf("booted strategy %q, want anu", got)
		}
		if phase, id := rt.MigrationPhase(); phase == migrate.DualTag && id != 79 {
			t.Fatalf("resumed phase carries id %d, want 79", id)
		}
		waitFor(t, 10*time.Second, "catch-up rollback", func() bool {
			phase, _ := rt.MigrationPhase()
			return phase == migrate.Idle
		})
		if got := rt.Strategy(); got != placement.StrategyANU {
			t.Fatalf("strategy %q after catch-up rollback, want anu", got)
		}
	})
}

// TestStartResumeRule pins the (epoch, round) a journaled node resumes
// at: the placement's, advanced to a newer migration record only when
// Start resumes that record's phase or boots its cutover.
func TestStartResumeRule(t *testing.T) {
	ids, anuSnap := bootstrap(t, 2)
	_, chordSnap := bootstrapStrategy(t, 2, placement.StrategyChordBounded)
	mig := func(phase migrate.Phase) []byte {
		rec := migrate.Record{Phase: phase, ID: 5, From: placement.StrategyANU, To: placement.StrategyChordBounded}
		if phase == migrate.DualTag {
			rec.Snapshot = chordSnap
		}
		return rec.Encode()
	}
	for _, tc := range []struct {
		name    string
		records []journal.Record
		want    [2]uint64
	}{
		{"placement only", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}}, [2]uint64{1, 4}},
		{"resumed phase advances", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}, {Epoch: 1, Round: 6, Map: mig(migrate.DualTag)}}, [2]uint64{1, 6}},
		{"booted cutover advances", []journal.Record{{Epoch: 1, Round: 4, Map: chordSnap}, {Epoch: 2, Round: 1, Map: mig(migrate.Committed)}}, [2]uint64{2, 1}},
		{"newer abort does not advance", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}, {Epoch: 1, Round: 6, Map: mig(migrate.Aborted)}}, [2]uint64{1, 4}},
		{"older phase does not move back", []journal.Record{{Epoch: 1, Round: 4, Map: mig(migrate.DualTag)}, {Epoch: 1, Round: 6, Map: anuSnap}}, [2]uint64{1, 6}},
		{"phase without placement", []journal.Record{{Epoch: 2, Round: 3, Map: mig(migrate.Proposed)}}, [2]uint64{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := journal.Open(filepath.Join(t.TempDir(), "node.wal"), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			for _, rec := range tc.records {
				if err := j.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			cn, err := NewMemNetwork(ChaosConfig{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			// Node 1 never hears node 0 and every timer is an hour long, so
			// nothing moves (epoch, round) after Start.
			rt, err := Start(Config{
				ID: 1, Members: ids, Snapshot: anuSnap,
				RoundInterval: time.Hour, FailAfter: time.Hour, MigrateTimeout: time.Hour,
				Journal: j, Logf: t.Logf,
			}, cn.Endpoint(1))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			if got := [2]uint64{rt.Epoch(), rt.Round()}; got != tc.want {
				t.Errorf("resumed at (epoch, round) %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMigrateDualTagResumeCompletes: a follower crashes inside the
// dual-tag window and restarts from its journal while the rest of the
// cluster commits. The resumed window plus the leader's post-commit
// catch-up must flip the restarted node to the target — no stranded
// old-strategy node, no torn state.
//
// To hold the victim inside the window long enough to crash it there
// deterministically, the leader's Commit messages and placement maps
// to the victim are gated off: the rest of the cluster cuts over
// while the victim is still dual-tagged. The gate opens after the
// restart, and the leader's post-commit retry (or the next broadcast
// map through the resumed window) must finish the job.
func TestMigrateDualTagResumeCompletes(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 13}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	const victim = 2
	var gate atomic.Bool // while set, the leader cannot reach the victim with commits or maps
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	dir := t.TempDir()
	journals := make([]*journal.Journal, len(ids))
	openJournal := func(i int) {
		j, err := journal.Open(filepath.Join(dir, fmt.Sprintf("node%d.wal", i)), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = j
	}
	rts := make([]*Runtime, len(ids))
	startNode := func(i int) {
		var tr Transport = cn.Endpoint(ids[i])
		if i == 0 {
			tr = filterTransport{Transport: tr, drop: func(m delegate.Message) bool {
				return gate.Load() && m.To == ids[victim] &&
					(m.Kind == MsgMigrateCommit || m.Kind == delegate.MsgMap)
			}}
		}
		rt, err := Start(Config{
			ID: ids[i], Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 300 * time.Millisecond,
			// The gate starves the victim of maps on purpose; a small
			// watchdog would re-elect on it and nack the held window.
			WatchdogRounds: 250, MigrateTimeout: 8 * time.Second, MigrateRetry: 80 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Journal: journals[i], Logf: t.Logf,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	for i := range ids {
		openJournal(i)
		startNode(i)
	}
	defer func() {
		for i, rt := range rts {
			rt.Stop()
			journals[i].Close()
		}
	}()
	waitFor(t, 15*time.Second, "pre-migration convergence", func() bool {
		return converged(rts) && rts[0].Stats().Tunes >= 1
	})
	del := waitDelegate(t, rts)
	if del.ID() != 0 {
		t.Fatalf("delegate %d, want 0", del.ID())
	}
	gate.Store(true)
	if _, err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	// The gated victim enters the dual-tag window (Warm still flows)
	// and stays there while the others commit.
	waitFor(t, 10*time.Second, "victim in dual-tag", func() bool {
		phase, _ := rts[victim].MigrationPhase()
		return phase == migrate.DualTag
	})
	rts[victim].Stop()
	if err := journals[victim].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "rest of the cluster committed", func() bool {
		for i, rt := range rts {
			if i == victim {
				continue
			}
			if rt.Strategy() != placement.StrategyChordBounded {
				return false
			}
		}
		return true
	})
	openJournal(victim)
	startNode(victim)
	waitFor(t, 10*time.Second, "victim resumed its dual-tag window", func() bool {
		phase, _ := rts[victim].MigrationPhase()
		return phase == migrate.DualTag
	})
	gate.Store(false)
	// The restart resumed the window from the journaled DualTag record,
	// and the leader's commit retry (or the next broadcast map) flips
	// the victim — every node ends on the target, migration closed.
	waitFor(t, 20*time.Second, "cluster-wide cutover incl. restarted victim", func() bool {
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
	waitFor(t, 15*time.Second, "post-migration reconvergence", func() bool {
		return converged(rts)
	})
}

// TestMigrateCommitsPastMalformedReport: a leader holding a malformed
// report when it commits still commits. Its warm install is one
// message of its own, not a drain of whatever else arrived.
func TestMigrateCommitsPastMalformedReport(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	// A one-member quorum runs the whole migration inside Migrate's body;
	// the runtime is unstarted, so no tick, and with it no tune, runs.
	now := time.Now()
	rt, err := newRuntime(Config{
		ID: 0, Members: ids, Snapshot: snapshot, Quorum: 1,
		RoundInterval: time.Hour, Logf: t.Logf,
	}, mn.Endpoint(0), now)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	rt.curDelegate = 0
	rt.handle(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 0, Round: 3}, now)
	rt.handle(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 0, Round: 3, Payload: []byte{1, 2, 3}}, now)
	if _, err := rt.migrate(placement.StrategyChordBounded, now); err != nil {
		t.Fatal(err)
	}
	if got := rt.Strategy(); got != placement.StrategyChordBounded {
		t.Fatalf("strategy %q after Migrate, want %q", got, placement.StrategyChordBounded)
	}
	if s := rt.Stats(); s.MigrationsCommitted != 1 || s.MigrationsAborted != 0 {
		t.Fatalf("committed=%d aborted=%d, want 1/0", s.MigrationsCommitted, s.MigrationsAborted)
	}
}

// TestDelegateMigratingHoldsAcrossInstalls: FlagMigrating rides every
// frame a migrating node sends, maps and reports included. A follower
// mirrors the bit from any message of its delegate, so while the
// delegate's migration is in flight the follower's DelegateMigrating
// must read true after every delivery, across the map installs of the
// window. On the virtual clock, acknowledgements are lost, so the
// migration stays Proposed while the delegate keeps tuning.
func TestDelegateMigratingHoldsAcrossInstalls(t *testing.T) {
	cfg := virtualConfig(t, placement.StrategyANU, 3)
	cfg.MigrateTimeout = time.Hour
	vn := newVirtualNet(t, cfg, ChaosConfig{MaxDelay: 5 * time.Millisecond, Seed: 1})
	vn.drop = func(msg delegate.Message, _ time.Duration) bool { return msg.Kind == MsgMigrateAck }
	vn.runUntil(10 * virtualRound)
	del := vn.rts[0]
	if _, err := del.migrate(placement.StrategyChordBounded, vn.time()); err != nil {
		t.Fatal(err)
	}
	vn.runUntil(vn.now + virtualRound) // the proposal reaches every follower
	followers := vn.rts[1:]
	installs := make([]uint64, len(followers))
	for i, rt := range followers {
		installs[i] = rt.Stats().MapsInstalled
	}
	for end := vn.now + 20*virtualRound; vn.now < end; {
		vn.runUntil(vn.now + time.Millisecond)
		for _, rt := range followers {
			if s := rt.Stats(); !s.DelegateMigrating {
				t.Fatalf("at %v: node %d reads DelegateMigrating false with the delegate's migration in flight (%d maps installed)", vn.now, s.ID, s.MapsInstalled)
			}
		}
	}
	if phase, _ := del.MigrationPhase(); phase != migrate.Proposed {
		t.Fatalf("delegate phase %v, want Proposed", phase)
	}
	for i, rt := range followers {
		if got := rt.Stats().MapsInstalled - installs[i]; got < 10 {
			t.Fatalf("node %d installed %d maps in 20 rounds, want at least 10", rt.cfg.ID, got)
		}
	}
}
