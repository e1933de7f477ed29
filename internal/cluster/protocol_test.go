package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"anurand/internal/delegate"
	"anurand/internal/placement"
)

// TestVirtualRestartRejoins crashes follower 3 of four: the delegate
// must fail it by its silence. Restarted from a live peer's snapshot, it
// must hold that peer's map at once, and from the next round on the
// delegate re-admits it with an equal share (placement.TuneRound's
// Recover): it holds at least half of one after every round, rather than
// regrowing from the controller's floor, and the cluster stays
// converged.
func TestVirtualRestartRejoins(t *testing.T) {
	cfg := virtualConfig(t, placement.StrategyANU, 4)
	cfg.Observe = closedLoopObserve(map[delegate.NodeID]float64{0: 1, 1: 2, 2: 4, 3: 8})
	vn := newVirtualNet(t, cfg, ChaosConfig{MaxDelay: 5 * time.Millisecond, Seed: 1})
	vn.runUntil(5 * virtualRound)
	vn.crash(3)
	vn.runUntil(8 * virtualRound)
	del := vn.rts[0]
	if share := del.Placement().Shares()[3]; share != 0 {
		t.Fatalf("silent node 3 keeps share %g", share)
	}
	vn.restart(3, 0)
	if fingerprint(vn.rts[3]) != fingerprint(del) {
		t.Fatal("restarted node does not hold its donor's map")
	}
	for round := 9; round <= 11; round++ {
		vn.runUntil(time.Duration(round) * virtualRound)
		for _, rt := range vn.rts {
			if fingerprint(rt) != fingerprint(del) {
				t.Fatalf("round %d: node %d diverged after the rejoin", round, rt.ID())
			}
		}
		if share := del.Placement().Shares()[3]; share < 1.0/8 {
			t.Fatalf("round %d: node 3 holds share %g, want at least half an equal share (1/8)", round, share)
		}
	}
}

// chaosSchedule runs one seed of TestProtocolChaosProperty and returns
// the net and the schedule it ran, one token per operation.
func chaosSchedule(t *testing.T, seed uint64, tail int) (*virtualNet, string) {
	const n = 5
	vn := newVirtualNet(t, virtualConfig(t, placement.StrategyANU, n), ChaosConfig{MaxDelay: 5 * time.Millisecond, Seed: seed})
	src := vn.src
	var schedule strings.Builder
	ops := 5 + src.Intn(40)
	for range ops {
		switch src.Intn(5) {
		case 0: // crash a random node, keeping at least one up
			id := delegate.NodeID(src.Intn(n))
			if len(vn.up()) > 1 && !vn.down[id] {
				vn.crash(id)
				fmt.Fprintf(&schedule, " crash(%d)", id)
			}
		case 1: // restart a crashed node from the first up node's snapshot
			id := delegate.NodeID(src.Intn(n))
			if vn.down[id] {
				donor := vn.up()[0]
				vn.restart(id, donor)
				fmt.Fprintf(&schedule, " restart(%d<-%d)", id, donor)
			}
		case 2: // set the loss rate
			vn.chaos.Drop = src.Float64() * 0.5
			fmt.Fprintf(&schedule, " loss(%.2f)", vn.chaos.Drop)
		default: // one round
			vn.runUntil(vn.now + virtualRound)
			schedule.WriteString(" round")
		}
	}
	vn.chaos.Drop = 0
	vn.runUntil(vn.now + time.Duration(tail)*virtualRound)
	return vn, schedule.String()
}

// TestProtocolChaosProperty runs seeds 1–60 of a random crash, restart
// and loss schedule over five ANU runtimes on the virtual clock. Each
// seed runs 5–44 operations — crash a node (at least one stays up),
// restart a down node from a live peer's snapshot, set loss to
// U(0, 0.5), or run one round — over up to 5 ms of delay, then ten calm
// rounds with loss off. Installs stay monotone in (epoch, round)
// throughout (virtualNet.record). After the calm tail every up node must
// hold one fingerprint and elect the lowest up id, its map must give
// every down member no share and every up member some, and the ANU
// geometry invariants must hold. Seed 1 must replay its digest. Split
// installs (two fingerprints at one (epoch, round)) are logged, not
// asserted: that is ROADMAP item 1's defect.
func TestProtocolChaosProperty(t *testing.T) {
	const seeds, tail = 60, 10
	lost, splits := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		vn, schedule := chaosSchedule(t, seed, tail)
		lost += vn.lost
		splits += vn.splits
		t.Logf("seed %d: digest %#x, %d messages, %d split installs", seed, vn.digest.Sum64(), vn.delivered, vn.splits)
		if vn.splits > 0 {
			t.Logf("seed %d schedule:%s", seed, schedule)
		}
		if seed == 1 {
			again, _ := chaosSchedule(t, seed, tail)
			if again.digest.Sum64() != vn.digest.Sum64() || again.delivered != vn.delivered {
				t.Fatalf("seed 1 replayed digest %#x over %d messages, first run %#x over %d",
					again.digest.Sum64(), again.delivered, vn.digest.Sum64(), vn.delivered)
			}
		}
		up := vn.up()
		del := vn.rts[up[0]]
		for _, id := range up {
			rt := vn.rts[id]
			var errs []string
			if fingerprint(rt) != fingerprint(del) {
				errs = append(errs, fmt.Sprintf("holds %#x, node %d %#x", fingerprint(rt), up[0], fingerprint(del)))
			}
			if got := rt.Delegate(); got != up[0] {
				errs = append(errs, fmt.Sprintf("elects %d, want the lowest up id %d", got, up[0]))
			}
			shares := rt.Placement().Shares()
			for m, down := range vn.down {
				if (shares[delegate.NodeID(m)] > 0) == down {
					errs = append(errs, fmt.Sprintf("member %d (down %v) holds share %g", m, down, shares[delegate.NodeID(m)]))
				}
			}
			if err := rt.Placement().(*placement.ANU).Map().CheckInvariants(); err != nil {
				errs = append(errs, fmt.Sprintf("invariants: %v", err))
			}
			if len(errs) > 0 {
				t.Fatalf("seed %d, after the calm tail, node %d: %s\nschedule:%s", seed, id, strings.Join(errs, "; "), schedule)
			}
		}
	}
	if lost == 0 {
		t.Fatal("no schedule lost a message: the loss operations went unexercised")
	}
	t.Logf("%d seeds: %d messages lost, %d split installs", seeds, lost, splits)
}
