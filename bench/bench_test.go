package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anurand/internal/benchfmt"
	"anurand/internal/delegate"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{ten(), 0, 1},
		{ten(), 0.1, 1},
		{ten(), 0.11, 2},
		{ten(), 0.5, 5},
		{ten(), 0.9, 9},
		{ten(), 0.99, 10},
		{ten(), 1, 10},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "round", ID: 1, Start: 0, End: 10},
		{Name: "child", ID: 2, Parent: 1, Start: 1, End: 4},
		{Name: "child", ID: 3, Parent: 1, Start: 3, End: 6},
		{Name: "late", ID: 4, Parent: 1, Start: 8, End: 12},
	}
	self := selfTimes(spans)
	// The children cover [1,6] and [8,10] of the parent: 7 of its 10 ns.
	if self["round"] != 3 || self["child"] != 6 || self["late"] != 4 {
		t.Errorf("self times = %v, want round 3, child 6, late 4", self)
	}
}

// TestStageMeansSumToInstallMean builds a recorder by hand: two rounds
// on a 4-node cluster, one reaching its report quorum and one tuned on
// the grace deadline, with one follower that never installs.
func TestStageMeansSumToInstallMean(t *testing.T) {
	const msec = int64(time.Millisecond)
	rec := newRecorder(4)
	rec.tracing.Store(true)
	rec.opens[1] = openEvent{at: 0, by: 0}
	rec.opens[2] = openEvent{at: 100 * msec, by: 0}
	report := func(round uint64, from int, at int64) {
		rec.reports = append(rec.reports, msgEvent{round: round, from: delegate.NodeID(from), to: 0, at: at})
	}
	send := func(round uint64, to int, at int64) {
		rec.maps = append(rec.maps, msgEvent{round: round, from: 0, to: delegate.NodeID(to), bytes: 100, at: at})
	}
	install := func(round uint64, node int, start, end int64) {
		rec.appends = append(rec.appends, appendEvent{node: delegate.NodeID(node), round: round, start: start, end: end})
	}
	// Round 1: quorum 3 needs two follower reports; the second lands at 2 ms.
	report(1, 1, 1*msec)
	report(1, 2, 2*msec)
	report(1, 3, 5*msec)
	send(1, 1, 10*msec)
	send(1, 2, 11*msec)
	send(1, 3, 12*msec)
	install(1, 1, 13*msec, 14*msec)
	install(1, 2, 15*msec, 16*msec)
	install(1, 3, 19*msec, 20*msec)
	// Round 2: one report, so the delegate tunes on the grace deadline;
	// node 3 never installs.
	report(2, 1, 101*msec)
	send(2, 1, 150*msec)
	send(2, 2, 150*msec)
	install(2, 1, 151*msec, 152*msec)
	install(2, 2, 154*msec, 158*msec)

	log := &spanLog{}
	cs := rec.control(0, time.Second.Nanoseconds(), 100*time.Millisecond, 3, log)
	if cs.rounds != 2 || cs.followerRounds != 6 || len(cs.installs) != 5 || len(cs.staged) != 5 {
		t.Fatalf("rounds=%d followerRounds=%d installs=%d staged=%d, want 2, 6, 5, 5",
			cs.rounds, cs.followerRounds, len(cs.installs), len(cs.staged))
	}
	var sum float64
	for _, stage := range cs.stages {
		sum += mean(stage)
	}
	if got, want := sum, mean(cs.staged); math.Abs(got-want) > 1e-9 {
		t.Errorf("stage means sum to %v ms, install mean is %v ms", got, want)
	}
	// Round 1, node 3: quorum at 2 ms, first map at 10, its map at 12,
	// installed at 20.
	want := [4]float64{2, 8, 2, 8}
	for s := range want {
		if got := cs.stages[s][2]; got != want[s] {
			t.Errorf("stage %s of round 1 node 3 = %v ms, want %v", stageNames[s], got, want[s])
		}
	}
	// Round 2 has no quorum point: report_quorum runs to the first map.
	if got := cs.stages[0][3]; got != 50 {
		t.Errorf("report_quorum of the deadline round = %v ms, want 50", got)
	}
	if got := cs.lags; len(got) != 1 || got[0] != 0 {
		t.Errorf("round lags = %v, want [0]", got)
	}
	for _, s := range log.spans {
		if s.Parent > uint64(len(log.spans)) || s.End < s.Start {
			t.Errorf("malformed span %+v", s)
		}
	}
}

// TestCompareAppliesBounds diffs two run files: a metric past its bound
// and a rise in failed checks each fail the comparison.
func TestCompareAppliesBounds(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "op_ms_p50", Unit: "ms", Bound: 0.1}}}
	dir := t.TempDir()
	write := func(name string, p50, failed float64) string {
		path := filepath.Join(dir, name)
		f := &benchfmt.File{Benchmarks: []benchfmt.Benchmark{{
			Pkg: benchPkg, Name: "rounds-n50",
			Metrics: map[string]float64{"op_ms_p50": p50, "failed": failed, "attempted": 100},
		}}}
		if err := benchfmt.WriteFile(f, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 20, 0)
	for _, c := range []struct {
		name        string
		p50, failed float64
		want        int
	}{
		{"within", 21.9, 0, 0},
		{"beyond", 22.1, 0, 1},
		{"failed", 20, 1, 1},
	} {
		var out strings.Builder
		code, err := compareRuns(sp, base, write(c.name+".json", c.p50, c.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.want, out.String())
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestWorkloadsSmoke runs every workload for one-second windows, traced,
// and checks that each reports every end-to-end metric listed in
// BENCHMARK.json with no failed check, and that every listed per-layer
// metric is reported by some workload.
func TestWorkloadsSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := opts{seed: 1, window: time.Second, trace: true, setups: 1, outDir: t.TempDir()}
	layers := make(map[string]bool)
	for _, w := range workloads {
		if raceEnabled && w.name == "rounds-n100-bounded" {
			// The detector's slowdown overloads 100 nodes on a small
			// machine: rounds outlive their interval and are superseded
			// before they install. The code paths are rounds-n50's.
			continue
		}
		res, err := w.run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed > 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, m := range sp.EndToEnd {
			if got, ok := res.metrics[m.Name]; !ok || got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.name, m.Name, got, m.Unit)
			}
		}
		for name := range res.metrics {
			layers[name] = true
		}
		if strings.HasPrefix(w.name, "rounds-") {
			if d := math.Abs(res.metrics["cluster.install_ms_mean"].Value - stageMeanSum(res)); d > 0.1 {
				t.Errorf("%s: stage means miss the install mean by %v ms", w.name, d)
			}
		}
		if _, err := resultLine([]*result{res}, sp, true, false); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	for _, m := range sp.PerLayer {
		if !layers[m.Name] {
			t.Errorf("per-layer metric %s is reported by no workload", m.Name)
		}
	}
}

func stageMeanSum(res *result) float64 {
	var sum float64
	for _, name := range stageNames {
		sum += res.metrics["cluster.stage."+name+"_ms_mean"].Value
	}
	return sum
}
