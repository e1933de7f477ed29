package anu

import (
	"math"
	"testing"
)

func newTestController() *Controller {
	return NewController(DefaultControllerConfig())
}

func TestControllerConfigValidate(t *testing.T) {
	good := DefaultControllerConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []func(*ControllerConfig){
		func(c *ControllerConfig) { c.Gamma = 0 },
		func(c *ControllerConfig) { c.Gamma = -1 },
		func(c *ControllerConfig) { c.Gamma = 5 },
		func(c *ControllerConfig) { c.MaxStep = 1 },
		func(c *ControllerConfig) { c.MaxStep = 0.5 },
		func(c *ControllerConfig) { c.MaxShrink = 1 },
		func(c *ControllerConfig) { c.DeadBand = -0.1 },
		func(c *ControllerConfig) { c.DeadBand = 1 },
		func(c *ControllerConfig) { c.MinWeight = 1 },
		func(c *ControllerConfig) { c.Smoothing = 1 },
		func(c *ControllerConfig) { c.IdleGrowth = 0.9 },
	}
	for i, mutate := range bads {
		cfg := DefaultControllerConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewControllerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController with Gamma=0 did not panic")
		}
	}()
	NewController(ControllerConfig{})
}

func TestAverageWeighted(t *testing.T) {
	avg, ok := Average([]Report{
		{Server: 0, Requests: 10, Latency: 1},
		{Server: 1, Requests: 30, Latency: 5},
		{Server: 2, Requests: 0, Latency: 99},  // idle, ignored
		{Server: 3, Requests: 5, Failed: true}, // failed, ignored
	})
	if !ok {
		t.Fatal("Average reported no data")
	}
	want := (10*1.0 + 30*5.0) / 40
	if math.Abs(avg-want) > 1e-12 {
		t.Fatalf("Average = %g, want %g", avg, want)
	}
	if _, ok := Average(nil); ok {
		t.Fatal("Average of nothing reported ok")
	}
}

func TestTuneShrinksSlowGrowsFast(t *testing.T) {
	m := newTestMap(t, 2)
	ctl := newTestController()
	before := m.Lengths()
	changedAny, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 100, Latency: 10}, // slow
		{Server: 1, Requests: 100, Latency: 1},  // fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if !changedAny {
		t.Fatal("Tune reported no change for a 10x latency gap")
	}
	if m.Length(0) >= before[0] {
		t.Errorf("slow server region did not shrink: %d -> %d", before[0], m.Length(0))
	}
	if m.Length(1) <= before[1] {
		t.Errorf("fast server region did not grow: %d -> %d", before[1], m.Length(1))
	}
	if m.TotalMapped() != Half {
		t.Errorf("total mapped %d after tune, want %d", m.TotalMapped(), Half)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTuneStepClamped(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Smoothing = 0
	cfg.MaxStep = 1.5
	cfg.MaxShrink = 1.5
	m := newTestMap(t, 2)
	ctl := NewController(cfg)
	before := m.Lengths()
	if _, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 10, Latency: 1000},
		{Server: 1, Requests: 10, Latency: 0.001},
	}); err != nil {
		t.Fatal(err)
	}
	// With both multipliers clamped to [1/1.5, 1.5], the post-normalize
	// ratio shift is bounded by 1.5^2.
	ratioBefore := float64(before[1]) / float64(before[0])
	ratioAfter := float64(m.Length(1)) / float64(m.Length(0))
	if ratioAfter/ratioBefore > 1.5*1.5+1e-9 {
		t.Fatalf("one round moved the ratio by %gx, exceeding the clamp", ratioAfter/ratioBefore)
	}
}

func TestTuneDeadBandSuppressesMovement(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.DeadBand = 0.2
	cfg.Smoothing = 0
	m := newTestMap(t, 3)
	ctl := NewController(cfg)
	changedAny, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 10, Latency: 1.0},
		{Server: 1, Requests: 10, Latency: 1.1},
		{Server: 2, Requests: 10, Latency: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	if changedAny {
		t.Fatal("Tune moved load inside the dead band")
	}
}

func TestTuneFailedServerZeroed(t *testing.T) {
	m := newTestMap(t, 3)
	ctl := newTestController()
	changedAny, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 10, Latency: 1},
		{Server: 1, Failed: true},
		{Server: 2, Requests: 10, Latency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !changedAny {
		t.Fatal("failure produced no change")
	}
	if m.Length(1) != 0 {
		t.Fatalf("failed server retains %d ticks", m.Length(1))
	}
	if m.TotalMapped() != Half {
		t.Fatalf("total %d, want %d", m.TotalMapped(), Half)
	}
}

func TestTuneFailureActsEvenInDeadBand(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.DeadBand = 0.5
	m := newTestMap(t, 3)
	ctl := NewController(cfg)
	if _, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 10, Latency: 1},
		{Server: 1, Requests: 10, Latency: 1},
		{Server: 2, Failed: true},
	}); err != nil {
		t.Fatal(err)
	}
	if m.Length(2) != 0 {
		t.Fatal("dead band masked a failure")
	}
}

func TestTuneIdleServersHoldRegion(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Smoothing = 0
	cfg.DeadBand = 0
	m := newTestMap(t, 3)
	ctl := NewController(cfg)
	before := m.Length(2)
	if _, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 10, Latency: 1},
		{Server: 1, Requests: 10, Latency: 1},
		{Server: 2, Requests: 0},
	}); err != nil {
		t.Fatal(err)
	}
	after := m.Length(2)
	// IdleGrowth=1 holds the idle server's weight; normalization may
	// nudge it by rounding only.
	if diff := math.Abs(float64(after) - float64(before)); diff > float64(Half)/1e6 {
		t.Fatalf("idle server region moved %g ticks", diff)
	}
}

func TestTuneUnknownServerRejected(t *testing.T) {
	m := newTestMap(t, 2)
	ctl := newTestController()
	if _, err := ctl.Tune(m, []Report{{Server: 9, Requests: 1, Latency: 1}}); err == nil {
		t.Fatal("report for unknown server accepted")
	}
}

func TestTuneNoReportsNoChange(t *testing.T) {
	m := newTestMap(t, 2)
	ctl := newTestController()
	changedAny, err := ctl.Tune(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if changedAny {
		t.Fatal("empty tuning round changed the map")
	}
}

func TestTuneMinWeightKeepsServerAddressable(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Smoothing = 0
	cfg.MinWeight = 0.01
	m := newTestMap(t, 2)
	ctl := NewController(cfg)
	// Hammer server 0 with terrible latency for many rounds.
	for i := 0; i < 50; i++ {
		if _, err := ctl.Tune(m, []Report{
			{Server: 0, Requests: 100, Latency: 100},
			{Server: 1, Requests: 100, Latency: 0.01},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Length(0) == 0 {
		t.Fatal("MinWeight floor failed: server 0 vanished")
	}
	frac := float64(m.Length(0)) / float64(Half)
	if frac > 0.02 {
		t.Fatalf("overwhelmed server still holds %.3f of the half", frac)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTuneConvergesOnHeterogeneousCapacity runs a closed-loop synthetic
// model of the paper's 1/3/5/7/9 cluster: each round, a server's
// latency is inversely proportional to capacity and proportional to the
// load (region length) it holds. The controller should converge to
// regions proportional to capacity.
func TestTuneConvergesOnHeterogeneousCapacity(t *testing.T) {
	speeds := map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	m := newTestMap(t, 5)
	cfg := DefaultControllerConfig()
	cfg.DeadBand = 0.02
	cfg.Smoothing = 0
	ctl := NewController(cfg)
	for round := 0; round < 200; round++ {
		var reports []Report
		for id, speed := range speeds {
			load := float64(m.Length(id)) / float64(Half)
			if load <= 0 {
				reports = append(reports, Report{Server: id, Requests: 0})
				continue
			}
			reports = append(reports, Report{
				Server:   id,
				Requests: uint64(1 + 1000*load),
				Latency:  load / speed,
			})
		}
		if _, err := ctl.Tune(m, reports); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// At equilibrium load/speed is equal across servers, so region
	// length should be proportional to speed (within the dead band).
	for id, speed := range speeds {
		got := float64(m.Length(id)) / float64(Half)
		want := speed / 25
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("server %d: equilibrium share %.4f, want ~%.4f (prop. to capacity)", id, got, want)
		}
	}
}

func TestAdvisoriesFlagIncompetentServer(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Smoothing = 0
	cfg.MinWeight = 0.01
	m := newTestMap(t, 3)
	ctl := NewController(cfg)
	// Server 0 is hopeless: terrible latency every round.
	for round := 0; round < 20; round++ {
		if _, err := ctl.Tune(m, []Report{
			{Server: 0, Requests: 50, Latency: 500},
			{Server: 1, Requests: 500, Latency: 1},
			{Server: 2, Requests: 500, Latency: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	advs := ctl.Advisories()
	if len(advs) != 1 || advs[0].Server != 0 {
		t.Fatalf("advisories = %+v, want server 0 flagged", advs)
	}
	if advs[0].Rounds < advisoryRounds {
		t.Fatalf("advisory rounds %d below threshold", advs[0].Rounds)
	}
}

func TestAdvisoriesClearWhenServerRecovers(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Smoothing = 0
	cfg.MinWeight = 0.01
	cfg.DeadBand = 0.05
	m := newTestMap(t, 2)
	ctl := NewController(cfg)
	for round := 0; round < 15; round++ {
		if _, err := ctl.Tune(m, []Report{
			{Server: 0, Requests: 50, Latency: 500},
			{Server: 1, Requests: 500, Latency: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctl.Advisories()) == 0 {
		t.Fatal("no advisory for a hopeless server")
	}
	// The server starts performing brilliantly; it regrows and its
	// advisory clears (server 1, now the laggard, may get flagged
	// instead — that is the controller doing its job).
	for round := 0; round < 40; round++ {
		if _, err := ctl.Tune(m, []Report{
			{Server: 0, Requests: 500, Latency: 0.01},
			{Server: 1, Requests: 500, Latency: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, adv := range ctl.Advisories() {
		if adv.Server == 0 {
			t.Fatalf("advisory for server 0 survived recovery: %+v", adv)
		}
	}
}

func TestAdvisoriesEmptyOnBalancedCluster(t *testing.T) {
	m := newTestMap(t, 4)
	ctl := newTestController()
	for round := 0; round < 10; round++ {
		if _, err := ctl.Tune(m, []Report{
			{Server: 0, Requests: 100, Latency: 1},
			{Server: 1, Requests: 100, Latency: 1},
			{Server: 2, Requests: 100, Latency: 1},
			{Server: 3, Requests: 100, Latency: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if advs := ctl.Advisories(); len(advs) != 0 {
		t.Fatalf("advisories on a balanced cluster: %+v", advs)
	}
}

func TestTuneRebootstrapsFullyCollapsedCluster(t *testing.T) {
	// A report blackout can zero every region (all servers "failed").
	// The next round with live reports must re-admit them instead of
	// erroring on all-zero weights.
	m := newTestMap(t, 2)
	if err := m.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Fail(1); err != nil {
		t.Fatal(err)
	}
	if m.TotalMapped() != 0 {
		t.Fatal("setup: map not empty")
	}
	ctl := newTestController()
	if _, err := ctl.Tune(m, []Report{
		{Server: 0, Requests: 0},
		{Server: 1, Requests: 5, Latency: 1},
	}); err != nil {
		t.Fatalf("Tune on collapsed cluster: %v", err)
	}
	if m.TotalMapped() != Half {
		t.Fatalf("cluster not re-bootstrapped: mapped %d", m.TotalMapped())
	}
	if m.Length(0) == 0 || m.Length(1) == 0 {
		t.Fatalf("live servers not re-admitted: %d, %d", m.Length(0), m.Length(1))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
