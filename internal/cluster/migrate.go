package cluster

// Live strategy migration is an ordinary map round. Migrate hands the
// delegate a target; its next tune builds a fresh placement of the
// target and sends it inside a migration window (placement.Window), a
// map whose bytes also name the strategy it replaces. Every node still
// on that strategy installs it through the ordinary (epoch, round)
// fence and serves the target from then on, one atomic snapshot publish
// per node. The delegate keeps the window for windowRounds rounds of
// ordinary tuning, so a node that missed the first window map installs
// a later one, and then sends the plain map, which closes it.
//
// The window rides the map, so no migration message, phase, ack or
// journal record exists: the journal holds the installed maps, a
// restarted node boots its newest one whatever its tag, and a
// re-elected delegate continues the window from its installed map. A
// node that is down for the whole window misses every map that names
// its strategy, and refuses the plain target map when it returns.

import (
	"fmt"
	"slices"

	"anurand/internal/placement"
)

// Migrate starts a live migration of the whole cluster from its current
// placement strategy to the named target. It must be called on the
// current delegate, and it refuses while the installed map holds a
// window or an earlier target waits for its round. It runs on the
// runtime's goroutine, like every other protocol step. The data plane
// keeps serving lock-free lookups throughout.
//
// A nil return means the target is pending at this delegate: its next
// tune sends the target's first map. If the delegate crashes or is
// deposed before that tune, the target is dropped: a deposed delegate
// logs the drop, and a crashed one loses the target with its memory.
// A caller learns the outcome from Stats: Window opens on each node as
// the window map installs, and Strategy names the target once the node
// serves it.
func (r *Runtime) Migrate(to string) error {
	if !slices.Contains(placement.Names(), to) {
		return fmt.Errorf("cluster: node %d: unknown strategy %q", r.cfg.ID, to)
	}
	done := make(chan error, 1)
	select {
	case r.calls <- func() { done <- r.migrate(to) }:
	case <-r.stop:
		return fmt.Errorf("cluster: node %d: runtime stopped", r.cfg.ID)
	}
	return <-done
}

// migrate is Migrate's body, run on the loop: it validates the target
// and leaves it for the next tune.
func (r *Runtime) migrate(to string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.curDelegate != r.cfg.ID:
		return fmt.Errorf("cluster: node %d: not the delegate (delegate is %d)", r.cfg.ID, r.curDelegate)
	case r.node.Strategy() == to:
		return fmt.Errorf("cluster: node %d: already running strategy %q", r.cfg.ID, to)
	case r.node.Window().IsOpen():
		return fmt.Errorf("cluster: node %d: migration window from %q still open", r.cfg.ID, r.node.Window().From)
	case r.migrateTo != "":
		return fmt.Errorf("cluster: node %d: migration to %q already pending", r.cfg.ID, r.migrateTo)
	}
	r.migrateTo = to
	r.cfg.logf("node %d: migrating %s -> %s at the next tune", r.cfg.ID, r.node.Strategy(), to)
	return nil
}

// windowRounds is how many rounds a migration window stays open:
// MigrateTimeout in whole rounds, rounded up.
func (r *Runtime) windowRounds() uint64 {
	return uint64((r.cfg.MigrateTimeout + r.cfg.RoundInterval - 1) / r.cfg.RoundInterval)
}
