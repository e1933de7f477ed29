package cluster

import (
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
)

// tuneRound is the cadence of the tune-wait tests: the report grace is
// half of it (200 ms), so a wait that polled at an eighth of the grace
// would put every install at 25 ms or later.
const tuneRound = 400 * time.Millisecond

// startTuneCluster starts five nodes on a calm MemNetwork at tuneRound,
// wrapping each endpoint through wrap (nil keeps it as is).
func startTuneCluster(t *testing.T, wrap func(id delegate.NodeID, ep *MemEndpoint) Transport) []*Runtime {
	t.Helper()
	mn, err := NewMemNetwork(ChaosConfig{Seed: 9}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mn.Close)
	ids, snapshot := bootstrap(t, 5)
	speeds := map[delegate.NodeID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	rts := make([]*Runtime, 0, len(ids))
	t.Cleanup(func() {
		for _, rt := range rts {
			rt.Stop()
		}
	})
	for _, id := range ids {
		ep := mn.Endpoint(id)
		var tr Transport = ep
		if wrap != nil {
			tr = wrap(id, ep)
		}
		rt, err := Start(Config{
			ID:            id,
			Members:       ids,
			Snapshot:      snapshot,
			Controller:    anu.DefaultControllerConfig(),
			RoundInterval: tuneRound,
			Observe:       closedLoopObserve(speeds),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rts = append(rts, rt)
	}
	return rts
}

// TestTuneWakesOnReports pins the event-driven tune wait: on a calm
// fabric every follower reports as soon as it sees the round open, the
// delegate tunes on the arrival of the last report, and installs land
// well inside an eighth of the report grace — the period the wait once
// polled at.
func TestTuneWakesOnReports(t *testing.T) {
	rts := startTuneCluster(t, nil)
	waitFor(t, 20*time.Second, "five installs on every follower", func() bool {
		for _, rt := range rts[1:] {
			if rt.Stats().MapsInstalled < 5 {
				return false
			}
		}
		return true
	})
	limit := tuneRound / 2 / 8
	for _, rt := range rts[1:] {
		s := rt.Stats()
		p50 := time.Duration(s.InstallLatencyHist.Quantile(0.5) * float64(time.Second))
		if p50 >= limit {
			t.Errorf("node %d: install p50 %v, want < grace/8 = %v (%s)", s.ID, p50, limit, s.InstallLatencyHist)
		}
	}
}

// TestLateReporterStillInstalls holds one follower's reports back past
// the straggler cutoff. The delegate tunes without it, as an idle
// server rather than a failed one, and must still send it every round's
// map: a follower left without maps would trip its watchdog and split
// the epoch.
func TestLateReporterStillInstalls(t *testing.T) {
	const late = delegate.NodeID(4)
	// Past the cutoff (twice the few milliseconds a quorum takes on a
	// calm fabric) but inside the report grace, so the held report still
	// arrives in its own round.
	const holdBack = 150 * time.Millisecond
	rts := startTuneCluster(t, func(id delegate.NodeID, ep *MemEndpoint) Transport {
		if id != late {
			return ep
		}
		return filterTransport{Transport: ep, drop: func(m delegate.Message) bool {
			if m.Kind != delegate.MsgReport {
				return false
			}
			time.AfterFunc(holdBack, func() { ep.SendAsync(m) })
			return true
		}}
	})
	del, straggler := rts[0], rts[late]
	waitFor(t, 20*time.Second, "the late follower's first install", func() bool {
		return straggler.Stats().MapsInstalled >= 1
	})
	tunes0, installs0 := del.Stats().Tunes, straggler.Stats().MapsInstalled
	time.Sleep(8 * tuneRound)
	tunes, installs := del.Stats().Tunes-tunes0, straggler.Stats().MapsInstalled-installs0
	// A round may be in flight at either edge of the window.
	if tunes < 4 || installs+1 < tunes {
		t.Errorf("late follower installed %d maps over %d tunes", installs, tunes)
	}
	for _, rt := range rts {
		if s := rt.Stats(); s.WatchdogTrips != 0 || s.Reelections != 0 {
			t.Errorf("node %d: watchdog trips %d, re-elections %d, want 0", s.ID, s.WatchdogTrips, s.Reelections)
		}
	}
	s := del.Stats()
	if s.ReportsPerTune.Max() >= 5 {
		t.Errorf("a tune counted the held-back report (reports per tune %s); the test no longer exercises a straggler", s.ReportsPerTune.String())
	}
	if share := del.Placement().Shares()[late]; share <= 0 {
		t.Errorf("late follower tuned as failed: share %v", share)
	}
}
