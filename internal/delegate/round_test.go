package delegate

import (
	"bytes"
	"fmt"
	"testing"

	"anurand/internal/anu"
	"anurand/internal/placement"
	"anurand/internal/policy"
	"anurand/internal/workload"
)

// TestRescaleMatchesSimulatorRetune feeds one sequence of membership
// views and reports — steady rounds, a failure, the rejoin, and a
// commissioned server — to the simulator's StrategyPlacer.Retune and
// to a delegate's Rescale, for every registered strategy. Both run
// placement.TuneRound, so their placements must encode byte-identically
// after every round.
func TestRescaleMatchesSimulatorRetune(t *testing.T) {
	speeds := map[NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9, 5: 4}
	// down[r] lists the members down in round r; member 5 is
	// commissioned in round 5 and reports from round 6 on.
	down := map[int][]NodeID{2: {3}, 3: {3}, 5: {1}}
	const rounds = 8
	keys := workload.NewKeySet([]workload.FileSet{{Name: "fs/0", Weight: 1}})
	opts := placement.Options{HashSeed: 11, Controller: anu.DefaultControllerConfig()}
	for _, name := range placement.Names() {
		t.Run(name, func(t *testing.T) {
			sim, err := policy.NewStrategyPlacerKeys(name, keys, []NodeID{0, 1, 2, 3, 4}, opts)
			if err != nil {
				t.Fatal(err)
			}
			del, err := NewNode(0, sim.Strategy().Encode(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= rounds; round++ {
				env := &policy.Env{Now: float64(round)}
				var members []placement.Member
				for id := NodeID(0); id <= 5; id++ {
					if id == 5 && round < 5 {
						continue
					}
					up := true
					for _, d := range down[round] {
						up = up && d != id
					}
					members = append(members, placement.Member{ID: id, Up: up, Weight: speeds[id]})
					env.Servers = append(env.Servers, policy.ServerInfo{ID: id, Speed: speeds[id], Up: up})
					if !up || (id == 5 && round == 5) {
						continue
					}
					rep := Report{Requests: uint64(100 * (int(id) + round)), LatencyMicros: uint64(1000 * (1 + int(id)*round%7))}
					if id == del.ID() {
						del.Observe(rep.Requests, float64(rep.LatencyMicros)/1e6)
						rep = del.last
					} else if _, err := del.Receive(Message{Kind: MsgReport, From: id, Round: uint64(round), Payload: encodeReport(rep)}, uint64(round)); err != nil {
						t.Fatal(err)
					}
					env.Reports = append(env.Reports, placement.Report{Server: id, Requests: rep.Requests, Latency: float64(rep.LatencyMicros) / 1e6})
				}
				simErr := sim.Retune(env)
				_, delErr := del.Rescale(1, uint64(round), members, "", 0)
				if (simErr == nil) != (delErr == nil) {
					t.Fatalf("round %d: simulator error %v, delegate error %v", round, simErr, delErr)
				}
				if want := sim.Strategy().Encode(); !bytes.Equal(del.Encoded(), want) {
					t.Fatalf("round %d: delegate placement differs from the simulator's\n%s", round, shareDiff(sim.Strategy(), del.Placement()))
				}
			}
			if share := del.Placement().Shares()[5]; share == 0 {
				t.Error("commissioned member 5 holds no share")
			}
		})
	}
}

func shareDiff(a, b placement.Strategy) string {
	return fmt.Sprintf("simulator %v\ndelegate  %v", a.Shares(), b.Shares())
}
