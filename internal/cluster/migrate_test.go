package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/journal"
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
				if tag := rt.Stats().Strategy; !ok[tag] {
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

// mapWindow decodes a journaled or sent map's strategy tag and window.
func mapWindow(t testing.TB, data []byte) (string, placement.Window) {
	t.Helper()
	s, w, err := placement.DecodeAfter(data, placement.Options{}, nil)
	if err != nil {
		t.Fatalf("undecodable map: %v", err)
	}
	return s.Name(), w
}

// settledOn reports whether every runtime serves strategy tag with no
// migration window open.
func settledOn(rts []*Runtime, tag string) bool {
	for _, rt := range rts {
		if s := rt.Stats(); s.Strategy != tag || s.Window.IsOpen() {
			return false
		}
	}
	return true
}

// wantJournalTail fails the test unless the journal's newest record is
// a plain map of strategy tag.
func wantJournalTail(t *testing.T, node int, j Journal, tag string) {
	t.Helper()
	rec, ok := j.LastPlacement()
	if !ok {
		t.Fatalf("node %d: nothing journaled", node)
	}
	if got, w := mapWindow(t, rec.Map); got != tag || w.IsOpen() {
		t.Fatalf("node %d: journal ends on %q with window %+v, want plain %q", node, got, w, tag)
	}
}

// TestMigrateSingleNode is the smallest end-to-end cutover: a one-node
// cluster opens the window at its next tune, serves the target inside
// it, closes it after MigrateTimeout's rounds and journals the plain
// target map; a second migration returns home.
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

	if err := rt.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the window map", func() bool {
		return rt.Stats().Strategy == placement.StrategyChordBounded
	})
	if w := rt.Stats().Window; w.From != placement.StrategyANU {
		t.Fatalf("first target map holds window %+v, want one from %q", w, placement.StrategyANU)
	}
	waitFor(t, 10*time.Second, "the window to close", func() bool {
		return settledOn([]*Runtime{rt}, placement.StrategyChordBounded)
	})
	wantJournalTail(t, 0, j, placement.StrategyChordBounded)
	// A second migration returns home.
	if err := rt.Migrate(placement.StrategyANU); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the return migration", func() bool {
		return settledOn([]*Runtime{rt}, placement.StrategyANU)
	})
}

// holdJournal holds the first Append of a map carrying a migration
// window until another Append arrives or 200 ms pass, so any flush that
// can run beside the window map's gets in between.
type holdJournal struct {
	*journal.Journal
	mu   sync.Mutex
	held chan struct{} // open while the first window record waits
}

func (h *holdJournal) Append(rec journal.Record) error {
	h.mu.Lock()
	var wait chan struct{}
	_, w, _ := placement.DecodeAfter(rec.Map, placement.Options{}, nil)
	switch {
	case h.held == nil && w.IsOpen():
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
// the first window map's record held back, a concurrent flush of a
// newer placement would make Append's monotone guard drop it. Flushes
// run on the loop in stage order, so the journal must hold the window
// map and then end with the plain target map.
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
		MigrateTimeout: 100 * time.Millisecond,
		Journal:        &holdJournal{Journal: j}, Logf: t.Logf,
	}, cn.Endpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	waitFor(t, 10*time.Second, "self-election", func() bool { return rt.Delegate() == 0 })
	if err := rt.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the window to close", func() bool {
		return settledOn([]*Runtime{rt}, placement.StrategyChordBounded)
	})
	rt.Stop()
	if s := j.Stats(); s.AppendsSkipped != 0 {
		t.Fatalf("journal skipped %d appends", s.AppendsSkipped)
	}
	wantJournalTail(t, 0, j, placement.StrategyChordBounded)
}

// TestMigrateValidation covers Migrate's refusals: unknown target,
// no-op target, follower callers, a target already pending, and an
// open window.
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
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 25 * time.Millisecond,
			MigrateTimeout: 10 * time.Second, Observe: closedLoopObserve(speeds),
		}, cn.Endpoint(id))
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
	if err := rts[1].Migrate(placement.StrategyChordBounded); err == nil {
		t.Error("follower accepted Migrate")
	}
	if err := del.Migrate("no-such-strategy"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := del.Migrate(placement.StrategyANU); err == nil {
		t.Error("migration to the current strategy accepted")
	}
	if err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatalf("valid migration refused: %v", err)
	}
	if err := del.Migrate(placement.StrategyChord); err == nil && del.Stats().Strategy == placement.StrategyANU {
		t.Error("second migration accepted while one is pending")
	}
	waitFor(t, 10*time.Second, "the window to open", func() bool { return del.Stats().Window.IsOpen() })
	if err := del.Migrate(placement.StrategyChord); err == nil {
		t.Error("second migration accepted while the window is open")
	}
}

// TestMigrateHappyPath is the three-node live cutover: ANU to the
// bounded-load chord ring under continuous lookups. Every node must
// flip atomically to the target, no lookup may ever fail, tuning must
// continue on the new strategy, and every journal must end with a plain
// target map.
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
			WatchdogRounds: 10, MigrateTimeout: 400 * time.Millisecond,
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
	if err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "cluster-wide cutover", func() bool {
		hammer.check(t)
		return settledOn(rts, placement.StrategyChordBounded)
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
		rt.Stop()
		wantJournalTail(t, i, journals[i], placement.StrategyChordBounded)
	}
}

// TestMigrateWeightsSurviveCutover is the weight-aware acceptance path:
// the leader carries a-priori capacity weights in its Config, migrates
// the live cluster from ANU to weighted rendezvous hashing, and the
// weights must arrive everywhere through the bytes alone — the
// followers are configured WITHOUT weights, so everything they serve
// and journal was learned from the leader's maps. A follower restart
// from its journal must come back weighted too.
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
			WatchdogRounds: 10, MigrateTimeout: 400 * time.Millisecond,
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
	if err := del.Migrate(placement.StrategyRendezvous); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "cluster-wide weighted cutover", func() bool {
		hammer.check(t)
		return settledOn(rts, placement.StrategyRendezvous)
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
		dec, _, err := placement.DecodeAfter(prec.Map, placement.Options{}, nil)
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
	if got := rts[victim].Stats().Strategy; got != placement.StrategyRendezvous {
		t.Fatalf("restarted node boots strategy %q, want %q", got, placement.StrategyRendezvous)
	}
	wantWeights("restarted node", rts[victim].Placement())
	waitFor(t, 15*time.Second, "post-restart reconvergence", func() bool {
		return converged(rts)
	})
}

// TestMigrateContinuesAcrossReelection: the delegate dies inside the
// window. The successor holds the window in its installed map, so it
// continues it — same opening round — and closes it on schedule; the
// survivors end on the target.
func TestMigrateContinuesAcrossReelection(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5}
	rts := make([]*Runtime, 0, len(ids))
	for _, id := range ids {
		rt, err := Start(Config{
			ID: id, Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 150 * time.Millisecond,
			WatchdogRounds: 10, MigrateTimeout: 4 * time.Second,
			Observe: closedLoopObserve(speeds), Logf: t.Logf,
		}, cn.Endpoint(id))
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
	if err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	// Let the window map reach the followers, then kill the delegate.
	waitFor(t, 10*time.Second, "followers inside the window", func() bool {
		for _, rt := range rts[1:] {
			if !rt.Stats().Window.IsOpen() {
				return false
			}
		}
		return true
	})
	w := rts[1].Stats().Window
	followers := rts[1:]
	hammer := startLookupHammer(followers, len(ids), placement.StrategyANU, placement.StrategyChordBounded)
	del.Stop()
	waitFor(t, 15*time.Second, "re-election and tuning", func() bool {
		hammer.check(t)
		return followers[0].Delegate() == 1 && followers[0].Stats().Tunes >= 1
	})
	if got := followers[0].Stats().Window; got != w {
		t.Fatalf("successor's map holds window %+v, want the predecessor's %+v", got, w)
	}
	waitFor(t, 15*time.Second, "the successor closes the window", func() bool {
		hammer.check(t)
		return settledOn(followers, placement.StrategyChordBounded)
	})
	hammer.close(t)
	if r := followers[0].Stats().MapRound; r < w.Opened+100 {
		t.Errorf("window from round %d closed by round %d, before its 100 rounds", w.Opened, r)
	}
}

// TestMigrateJournalResume hands Start hand-built journals of a node
// configured for "anu": the newest record boots, whatever its strategy.
// A window tail boots the target inside its window, and the lone node,
// elected delegate, continues and closes that window from its
// installed map; a plain target tail boots the target.
func TestMigrateJournalResume(t *testing.T) {
	ids, anuSnap := bootstrap(t, 1)
	_, chordSnap := bootstrapStrategy(t, 1, placement.StrategyChordBounded)
	window := placement.EncodeWindow(placement.Window{From: placement.StrategyANU, Opened: 6}, chordSnap)

	start := func(t *testing.T, records ...journal.Record) (*Runtime, *journal.Journal) {
		j, err := journal.Open(filepath.Join(t.TempDir(), "node.wal"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		for _, rec := range records {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		cn, err := NewMemNetwork(ChaosConfig{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cn.Close)
		rt, err := Start(Config{
			ID: 0, Members: ids, Snapshot: anuSnap, Strategy: placement.StrategyANU,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 20 * time.Millisecond,
			MigrateTimeout: 250 * time.Millisecond, Journal: j, Logf: t.Logf,
		}, cn.Endpoint(0))
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		t.Cleanup(rt.Stop)
		return rt, j
	}

	t.Run("window tail boots the target inside its window", func(t *testing.T) {
		rt, j := start(t,
			journal.Record{Epoch: 1, Round: 4, Map: anuSnap},
			journal.Record{Epoch: 1, Round: 6, Map: window})
		s := rt.Stats()
		if s.Strategy != placement.StrategyChordBounded || !s.Recovered || s.RecoveredEpoch != 1 || s.RecoveredRound != 6 {
			t.Fatalf("booted %q recovered=(%v, %d, %d), want %q at (1, 6)",
				s.Strategy, s.Recovered, s.RecoveredEpoch, s.RecoveredRound, placement.StrategyChordBounded)
		}
		waitFor(t, 10*time.Second, "the window to close", func() bool {
			return settledOn([]*Runtime{rt}, placement.StrategyChordBounded)
		})
		if r := rt.Stats().MapRound; r < 6+13 {
			t.Errorf("window from round 6 closed by round %d, before its 13 rounds", r)
		}
		rt.Stop()
		wantJournalTail(t, 0, j, placement.StrategyChordBounded)
	})

	t.Run("committed tail boots the target strategy", func(t *testing.T) {
		rt, _ := start(t,
			journal.Record{Epoch: 2, Round: 6, Map: window},
			journal.Record{Epoch: 2, Round: 9, Map: chordSnap})
		s := rt.Stats()
		if s.Strategy != placement.StrategyChordBounded || s.Window.IsOpen() {
			t.Fatalf("booted %q with window %+v, want plain %q", s.Strategy, s.Window, placement.StrategyChordBounded)
		}
		if !s.Recovered || s.RecoveredEpoch != 2 || s.RecoveredRound != 9 {
			t.Errorf("recovered fence (%v, %d, %d), want (true, 2, 9)", s.Recovered, s.RecoveredEpoch, s.RecoveredRound)
		}
	})
}

// TestCompactedMigrationJournalBootsTarget is the regression test for
// compaction across a migration: a journal holding a window record and
// then 21 plain chord-bounded maps at a 256-byte compaction threshold
// is compacted, and a node still configured for "anu" that reopens it
// must boot chord-bounded at the newest fence. Compaction used to drop
// the record that explained the strategy change, and Start then
// refused the reopened journal.
func TestCompactedMigrationJournalBootsTarget(t *testing.T) {
	ids, anuSnap := bootstrap(t, 1)
	_, chordSnap := bootstrapStrategy(t, 1, placement.StrategyChordBounded)
	path := filepath.Join(t.TempDir(), "node.wal")
	j, err := journal.Open(path, journal.Options{CompactThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	records := []journal.Record{
		{Epoch: 1, Round: 4, Map: anuSnap},
		{Epoch: 1, Round: 6, Map: placement.EncodeWindow(placement.Window{From: placement.StrategyANU, Opened: 6}, chordSnap)},
	}
	for round := uint64(7); round <= 27; round++ {
		records = append(records, journal.Record{Epoch: 1, Round: round, Map: chordSnap})
	}
	for _, rec := range records {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatal("compaction never ran; raise the churn or lower the threshold")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = journal.Open(path, journal.Options{CompactThreshold: 256}); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rt, err := Start(Config{
		ID: 0, Members: ids, Snapshot: anuSnap, Strategy: placement.StrategyANU,
		RoundInterval: time.Hour, Journal: j, Logf: t.Logf,
	}, cn.Endpoint(0))
	if err != nil {
		t.Fatalf("start over the compacted migration journal: %v", err)
	}
	defer rt.Stop()
	if s := rt.Stats(); s.Strategy != placement.StrategyChordBounded || s.Window.IsOpen() ||
		s.RecoveredEpoch != 1 || s.RecoveredRound != 27 {
		t.Fatalf("booted %q window %+v at (%d, %d), want plain %q at (1, 27)",
			s.Strategy, s.Window, s.RecoveredEpoch, s.RecoveredRound, placement.StrategyChordBounded)
	}
}

// TestStartResumeRule pins the (epoch, round) a journaled node resumes
// at: the newest record's, whether it is plain or carries a window, and
// whatever its strategy.
func TestStartResumeRule(t *testing.T) {
	ids, anuSnap := bootstrap(t, 2)
	_, chordSnap := bootstrapStrategy(t, 2, placement.StrategyChordBounded)
	window := placement.EncodeWindow(placement.Window{From: placement.StrategyANU, Opened: 4}, chordSnap)
	for _, tc := range []struct {
		name    string
		records []journal.Record
		want    [2]uint64
	}{
		{"placement only", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}}, [2]uint64{1, 4}},
		{"resumed phase advances", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}, {Epoch: 1, Round: 6, Map: window}}, [2]uint64{1, 6}},
		{"booted cutover advances", []journal.Record{{Epoch: 1, Round: 4, Map: anuSnap}, {Epoch: 2, Round: 1, Map: chordSnap}}, [2]uint64{2, 1}},
		{"older phase does not move back", []journal.Record{{Epoch: 1, Round: 4, Map: window}, {Epoch: 1, Round: 6, Map: anuSnap}}, [2]uint64{1, 6}},
		{"phase without placement", []journal.Record{{Epoch: 2, Round: 3, Map: window}}, [2]uint64{2, 3}},
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
			if got := [2]uint64{rt.Epoch(), rt.Stats().Round}; got != tc.want {
				t.Errorf("resumed at (epoch, round) %v, want %v", got, tc.want)
			}
		})
	}
}

// recordJournal is a Journal that keeps every Append in memory, for
// tests that replay a node's journal prefix by prefix.
type recordJournal struct{ recs []journal.Record }

func (j *recordJournal) LastPlacement() (journal.Record, bool) {
	if len(j.recs) == 0 {
		return journal.Record{}, false
	}
	return j.recs[len(j.recs)-1], true
}

func (j *recordJournal) Append(rec journal.Record) error {
	j.recs = append(j.recs, journal.Record{Epoch: rec.Epoch, Round: rec.Round, Map: append([]byte(nil), rec.Map...)})
	return nil
}

// TestMigrationJournalCrashPoints records every Append of follower 3
// through a 5-node anu → chord-bounded migration on the virtual clock,
// then restarts a node configured for "anu" from every prefix of that
// journal, and from every prefix followed by a record torn half-way. A
// crash at any record boundary must recover: anu before the first
// window record, chord-bounded from it on, at the prefix's newest fence.
func TestMigrationJournalCrashPoints(t *testing.T) {
	cfg := virtualConfig(t, placement.StrategyANU, 5)
	vn := newVirtualNet(t, cfg, ChaosConfig{MaxDelay: 5 * time.Millisecond, Seed: 1})
	const follower = 3
	rec := &recordJournal{}
	vn.rts[follower].cfg.Journal = rec
	vn.runUntil(10 * virtualRound)
	if err := vn.rts[0].migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	vn.runUntil(40 * virtualRound)
	if !settledOn(vn.rts, placement.StrategyChordBounded) {
		t.Fatal("the migration did not settle within 30 rounds")
	}

	// Write the journal once, noting the file size after each record.
	path := filepath.Join(t.TempDir(), "follower.wal")
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{j.Stats().SizeBytes}
	firstWindow := -1
	for i, r := range rec.recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, j.Stats().SizeBytes)
		if _, w := mapWindow(t, r.Map); w.IsOpen() && firstWindow < 0 {
			firstWindow = i
		}
	}
	j.Close()
	if firstWindow < 1 {
		t.Fatalf("first window record at %d of %d records, want one after an anu record", firstWindow, len(rec.recs))
	}
	t.Logf("%d records, the first window map at record %d", len(rec.recs), firstWindow)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restart := func(k int, data []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "crash.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(p, journal.Options{})
		if err != nil {
			t.Fatalf("prefix %d: open: %v", k, err)
		}
		defer j.Close()
		c := cfg
		c.ID, c.Journal = follower, j
		rt, err := newRuntime(c, virtualEndpoint{vn}, vn.time())
		if err != nil {
			t.Fatalf("prefix %d: newRuntime: %v", k, err)
		}
		want, epoch, round := placement.StrategyANU, uint64(0), uint64(0)
		if k > 0 {
			epoch, round = rec.recs[k-1].Epoch, rec.recs[k-1].Round
			if k > firstWindow {
				want = placement.StrategyChordBounded
			}
		}
		if s := rt.Stats(); s.Strategy != want || s.MapEpoch != epoch || s.MapRound != round {
			t.Fatalf("prefix %d: serves %q at (%d, %d), want %q at (%d, %d)",
				k, s.Strategy, s.MapEpoch, s.MapRound, want, epoch, round)
		}
	}
	for k := range rec.recs {
		restart(k, full[:bounds[k]])
		restart(k, full[:(bounds[k]+bounds[k+1])/2]) // record k torn half-way
	}
	restart(len(rec.recs), full)
}

// TestMigrateDualTagResumeCompletes: a follower crashes inside the
// window, and the rest of the cluster closes the window while it is
// down. It restarts from its journal, whose newest record is the window
// map, so it boots the target inside the window and installs the plain
// target map that closed it — no stranded old-strategy node, no torn
// state.
func TestMigrateDualTagResumeCompletes(t *testing.T) {
	cn, err := NewMemNetwork(ChaosConfig{Seed: 13}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ids, snapshot := bootstrap(t, 3)
	const victim = 2
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
		rt, err := Start(Config{
			ID: ids[i], Members: ids, Snapshot: snapshot,
			Controller: anu.DefaultControllerConfig(), RoundInterval: 40 * time.Millisecond,
			HeartbeatInterval: 8 * time.Millisecond, FailAfter: 300 * time.Millisecond,
			WatchdogRounds: 250, MigrateTimeout: 400 * time.Millisecond,
			Observe: closedLoopObserve(speeds), Journal: journals[i], Logf: t.Logf,
		}, cn.Endpoint(ids[i]))
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
	if err := del.Migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "victim inside the window", func() bool {
		return rts[victim].Stats().Window.IsOpen()
	})
	rts[victim].Stop()
	if err := journals[victim].Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "rest of the cluster closed the window", func() bool {
		return settledOn([]*Runtime{rts[0], rts[1]}, placement.StrategyChordBounded)
	})
	openJournal(victim)
	startNode(victim)
	if s := rts[victim].Stats(); s.Strategy != placement.StrategyChordBounded || !s.Window.IsOpen() {
		t.Fatalf("victim restarted on %q with window %+v, want %q inside the window",
			s.Strategy, s.Window, placement.StrategyChordBounded)
	}
	waitFor(t, 20*time.Second, "cluster-wide cutover incl. restarted victim", func() bool {
		return settledOn(rts, placement.StrategyChordBounded)
	})
	waitFor(t, 15*time.Second, "post-migration reconvergence", func() bool {
		return converged(rts)
	})
}

// TestMigrateCommitsPastMalformedReport: a delegate holding a malformed
// report still opens the window at its next tune. The report is refused
// on arrival and never reaches the round: with only its own sample in,
// short of the 2-of-3 majority, the delegate waits for the half-round
// cutoff and tunes there.
func TestMigrateCommitsPastMalformedReport(t *testing.T) {
	ids, snapshot := bootstrap(t, 3)
	mn, err := NewMemNetwork(ChaosConfig{Seed: 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	// The runtime is unstarted, so only the steps below run.
	now := time.Now()
	rt, err := newRuntime(Config{
		ID: 0, Members: ids, Snapshot: snapshot,
		RoundInterval: time.Hour, Logf: t.Logf,
	}, mn.Endpoint(0), now)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	rt.curDelegate = 0
	rt.handle(delegate.Message{Kind: MsgHeartbeat, From: 1, To: 0, Round: 3}, now)
	rt.handle(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 0, Round: 3, Payload: []byte{1, 2, 3}}, now)
	if err := rt.migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	rt.roundStart, rt.tuneAt = now, now.Add(time.Hour/2)
	rt.tuneIfDue(now.Add(time.Minute))
	if tunes := rt.Stats().Tunes; tunes != 0 {
		t.Fatalf("%d tunes before the cutoff with one report of three in", tunes)
	}
	rt.tuneIfDue(rt.tuneAt)
	if s := rt.Stats(); s.Strategy != placement.StrategyChordBounded || s.Window != (placement.Window{From: placement.StrategyANU, Opened: 3}) || s.Tunes != 1 {
		t.Fatalf("after the tune: %q window %+v tunes %d, want %q inside a window from anu opened at 3 after 1 tune",
			s.Strategy, s.Window, s.Tunes, placement.StrategyChordBounded)
	}
}

// TestDelegateMigratingHoldsAcrossInstalls: every map the delegate sends
// while its migration window is open carries the window, so once a follower installed the
// first window map its Stats().Window must read open after every
// delivery, across the map installs of the window.
func TestDelegateMigratingHoldsAcrossInstalls(t *testing.T) {
	cfg := virtualConfig(t, placement.StrategyANU, 3)
	cfg.MigrateTimeout = time.Hour
	vn := newVirtualNet(t, cfg, ChaosConfig{MaxDelay: 5 * time.Millisecond, Seed: 1})
	vn.runUntil(10 * virtualRound)
	del := vn.rts[0]
	if err := del.migrate(placement.StrategyChordBounded); err != nil {
		t.Fatal(err)
	}
	vn.runUntil(vn.now + virtualRound) // the window map reaches every follower
	followers := vn.rts[1:]
	installs := make([]uint64, len(followers))
	for i, rt := range followers {
		installs[i] = rt.Stats().MapsInstalled
	}
	for end := vn.now + 20*virtualRound; vn.now < end; {
		vn.runUntil(vn.now + time.Millisecond)
		for _, rt := range followers {
			if s := rt.Stats(); !s.Window.IsOpen() {
				t.Fatalf("at %v: node %d reads its window closed with the delegate's window open (%d maps installed)", vn.now, s.ID, s.MapsInstalled)
			}
		}
	}
	if !del.Stats().Window.IsOpen() {
		t.Fatal("delegate's window closed within an hour-long MigrateTimeout")
	}
	for i, rt := range followers {
		if got := rt.Stats().MapsInstalled - installs[i]; got < 10 {
			t.Fatalf("node %d installed %d maps in 20 rounds, want at least 10", rt.cfg.ID, got)
		}
	}
}
