package anurand

// Benchmarks that regenerate every results figure of the paper
// (Figures 4-8). Each benchmark runs the corresponding experiment and
// reports the figure's headline quantities through b.ReportMetric, so
// `go test -bench=. -benchmem` reproduces the evaluation end to end.
//
// The benchmarks run the experiments on the Quick workload scale
// (~10x smaller than the paper's, same shapes) so the whole suite
// finishes in tens of seconds; `cmd/paperfigs` runs the full-scale
// versions, whose numbers EXPERIMENTS.md records.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"anurand/internal/anu"
	"anurand/internal/clustersim"
	"anurand/internal/experiment"
	"anurand/internal/hashx"
	"anurand/internal/placement"
)

// newQuickSuite builds a fresh scaled-down suite. Each benchmark
// iteration pays for its own simulations. Workers is pinned to 1: with
// work-stealing workers the cell-to-worker assignment depends on
// scheduling, and since each worker owns a reusable simulation scratch,
// allocs/op would vary run to run — sequential cells keep the figure
// suite's allocation counts exact, which the zero-tolerance
// bench-gate-allocs target relies on.
func newQuickSuite() *experiment.Suite {
	cfg := experiment.DefaultConfig()
	cfg.Quick = true
	cfg.Workers = 1
	return experiment.NewSuite(cfg)
}

// BenchmarkFig4DFSTraceLatency regenerates Figure 4: per-server latency
// under the DFSTrace-like workload for all four systems. Reported
// metrics are each system's aggregate mean latency in milliseconds.
func BenchmarkFig4DFSTraceLatency(b *testing.B) {
	var last map[experiment.PolicyName]*clustersim.Result
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		res, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for name, res := range last {
		b.ReportMetric(res.MeanLatency()*1e3, fmt.Sprintf("ms-mean-%s", name))
	}
}

// BenchmarkFig5SyntheticLatency regenerates Figure 5: per-server
// latency under the synthetic workload for all four systems.
func BenchmarkFig5SyntheticLatency(b *testing.B) {
	var last map[experiment.PolicyName]*clustersim.Result
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		res, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for name, res := range last {
		b.ReportMetric(res.MeanLatency()*1e3, fmt.Sprintf("ms-mean-%s", name))
	}
}

// BenchmarkFig6aAggregateLatency regenerates Figure 6(a): aggregate
// mean latency and standard deviation per system.
func BenchmarkFig6aAggregateLatency(b *testing.B) {
	var rows []experiment.Fig6Row
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		var err error
		rows, err = s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		b.ReportMetric(row.MeanLatency*1e3, fmt.Sprintf("ms-mean-%s", row.Policy))
		b.ReportMetric(row.StdDev*1e3, fmt.Sprintf("ms-sd-%s", row.Policy))
	}
}

// Figure 6(b)'s consistency spread excludes the servers the paper
// treats as outliers: the weakest (speed-1) server, which ANU rightly
// drives near idle, and any server with too few completed requests for
// a stable mean.
const (
	fig6bWeakestServer = 0
	fig6bMinRequests   = 200
)

// BenchmarkFig6bPerServerLatency regenerates Figure 6(b): per-server
// mean latency under ANU — the consistency result. The reported spread
// is max/min mean latency across servers that did real work.
func BenchmarkFig6bPerServerLatency(b *testing.B) {
	var rows []experiment.Fig6Row
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		var err error
		rows, err = s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Policy != experiment.ANU {
			continue
		}
		lo, hi := 0.0, 0.0
		first := true
		for id, m := range row.PerServerMean {
			if row.PerServerCount[id] < fig6bMinRequests || id == fig6bWeakestServer {
				continue
			}
			if first {
				lo, hi = m, m
				first = false
				continue
			}
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if lo > 0 {
			b.ReportMetric(hi/lo, "x-consistency-spread")
		}
	}
}

// BenchmarkFig7LoadMovement regenerates Figure 7: ANU's file-set
// movement over the run.
func BenchmarkFig7LoadMovement(b *testing.B) {
	var moves []clustersim.MoveRecord
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		var err error
		moves, err = s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	var work float64
	for _, m := range moves {
		total += m.FileSetsMoved
		work += m.WorkMovedFrac
	}
	b.ReportMetric(float64(total), "filesets-moved")
	b.ReportMetric(100*work, "pct-work-moved")
	b.ReportMetric(float64(len(moves)), "rounds")
}

// BenchmarkFig8VPTradeoff regenerates Figure 8: the VP count sweep with
// ANU and prescient references, plus the shared-state sizes.
func BenchmarkFig8VPTradeoff(b *testing.B) {
	counts := []int{5, 15, 30, 50}
	var res *experiment.Fig8Result
	for i := 0; i < b.N; i++ {
		s := newQuickSuite()
		var err error
		res, err = s.Fig8(counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range res.Hot {
		b.ReportMetric(pt.MeanLatency*1e3, fmt.Sprintf("ms-mean-vp%d", pt.NumVP))
		b.ReportMetric(float64(pt.SharedStateBytes), fmt.Sprintf("B-state-vp%d", pt.NumVP))
	}
	b.ReportMetric(res.HotRefs.ANULatency*1e3, "ms-mean-anu")
	b.ReportMetric(float64(res.HotRefs.ANUSharedState), "B-state-anu")
	b.ReportMetric(res.HotRefs.PrescientLatency*1e3, "ms-mean-prescient")
}

// sharedBalancer serves the micro-benchmarks below.
var (
	benchOnce sync.Once
	benchBal  *Balancer
	benchErr  error
)

func sharedBalancer(b *testing.B) *Balancer {
	benchOnce.Do(func() {
		ids := make([]ServerID, 16)
		for i := range ids {
			ids[i] = ServerID(i)
		}
		benchBal, benchErr = New(ids)
	})
	if benchErr != nil {
		b.Fatalf("balancer init failed: %v", benchErr)
	}
	return benchBal
}

// benchKeys returns the fixed key set the lookup benchmarks probe
// with; the power-of-two length keeps the selection a mask.
func benchKeys() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("fileset/%04d", i)
	}
	return keys
}

// BenchmarkBalancerLookup measures the addressing cost: a placement is
// a couple of hash probes, no I/O, no table walk — and since the RCU
// refactor, no lock.
func BenchmarkBalancerLookup(b *testing.B) {
	bal := sharedBalancer(b)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bal.Lookup(keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkBalancerLookupParallel measures read-path scalability: with
// RCU snapshot publication, concurrent lookups share nothing but an
// atomic pointer load, so throughput scales with GOMAXPROCS instead of
// serializing on a reader-writer lock.
func BenchmarkBalancerLookupParallel(b *testing.B) {
	bal := sharedBalancer(b)
	keys := benchKeys()
	var failed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := bal.Lookup(keys[i&1023]); !ok {
				failed.Add(1)
				return
			}
			i++
		}
	})
	if failed.Load() > 0 {
		b.Fatal("lookup failed")
	}
}

// rwmutexBalancer reproduces the pre-RCU read path — every lookup
// taking a reader-writer lock around the shared map — as the regression
// reference for BenchmarkBalancerLookupParallelMutex.
type rwmutexBalancer struct {
	mu sync.RWMutex
	m  *anu.Map
}

func (rb *rwmutexBalancer) Lookup(key string) (ServerID, bool) {
	rb.mu.RLock()
	defer rb.mu.RUnlock()
	id, _ := rb.m.Lookup(key)
	if id == anu.NoServer {
		return 0, false
	}
	return ServerID(id), true
}

func newRWMutexBalancer(b *testing.B) *rwmutexBalancer {
	ids := make([]anu.ServerID, 16)
	for i := range ids {
		ids[i] = anu.ServerID(i)
	}
	m, err := anu.New(hashx.NewFamily(0), ids)
	if err != nil {
		b.Fatalf("balancer init failed: %v", err)
	}
	return &rwmutexBalancer{m: m}
}

// BenchmarkBalancerLookupParallelMutex is the before picture: the same
// lookup serialized behind a sync.RWMutex. The ratio of the Parallel
// benchmark to this one is the win the RCU data plane buys at a given
// core count.
func BenchmarkBalancerLookupParallelMutex(b *testing.B) {
	bal := newRWMutexBalancer(b)
	keys := benchKeys()
	var failed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := bal.Lookup(keys[i&1023]); !ok {
				failed.Add(1)
				return
			}
			i++
		}
	})
	if failed.Load() > 0 {
		b.Fatal("lookup failed")
	}
}

// BenchmarkBalancerLookupBatch measures the batch data plane: one
// snapshot load amortized over a full batch of placements.
func BenchmarkBalancerLookupBatch(b *testing.B) {
	bal := sharedBalancer(b)
	keys := benchKeys()
	owners := make([]ServerID, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := bal.LookupBatch(keys, owners); n != len(keys) {
			b.Fatalf("batch resolved %d/%d", n, len(keys))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

// BenchmarkBalancerTune measures one delegate feedback round over 16
// servers.
func BenchmarkBalancerTune(b *testing.B) {
	bal := sharedBalancer(b)
	reports := make([]Report, 16)
	for i := range reports {
		reports[i] = Report{Server: ServerID(i), Requests: 100, LatencySeconds: 1 + float64(i%5)*0.2}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bal.Tune(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBalancerSnapshot measures serializing the replicated state.
func BenchmarkBalancerSnapshot(b *testing.B) {
	bal := sharedBalancer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(bal.Snapshot()) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// newStrategy builds a registered placement strategy over 16 servers
// for the ring lookup benchmarks, mirroring sharedBalancer's shape.
func newStrategy(b *testing.B, tag string) placement.Strategy {
	ids := make([]placement.ServerID, 16)
	for i := range ids {
		ids[i] = placement.ServerID(i)
	}
	s, err := placement.New(tag, ids, placement.Options{HashSeed: 0})
	if err != nil {
		b.Fatalf("strategy %s init failed: %v", tag, err)
	}
	return s
}

// skewTune drives one feedback round with a skewed request distribution
// so the bounded ring carries live shed fractions — the benchmark then
// measures the real read path, shed branch included.
func skewTune(b *testing.B, s placement.Strategy) {
	reports := make([]placement.Report, 16)
	for i := range reports {
		reports[i] = placement.Report{Server: placement.ServerID(i), Requests: 100, Latency: 1}
	}
	reports[3].Requests = 4000
	reports[7].Requests = 2500
	if _, err := s.Tune(reports); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChordLookup measures the plain consistent-hash ring's
// addressing cost: one FNV pass, one mix, one binary search over the
// sorted point array — no allocation.
func BenchmarkChordLookup(b *testing.B) {
	s := newStrategy(b, placement.StrategyChord)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placement.Lookup(s, keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkChordBoundedLookup measures the bounded-load ring with shed
// fractions active, so the arc-prefix forwarding branch is on the
// measured path rather than benchmarking an idle ring.
func BenchmarkChordBoundedLookup(b *testing.B) {
	s := newStrategy(b, placement.StrategyChordBounded)
	skewTune(b, s)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placement.Lookup(s, keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// newWeightedStrategy is newStrategy with a skewed capacity table, so
// the weighted benchmarks measure the real weighted path rather than
// the uniform special case.
func newWeightedStrategy(b *testing.B, tag string) placement.Strategy {
	ids := make([]placement.ServerID, 16)
	weights := make(map[placement.ServerID]float64, 16)
	for i := range ids {
		ids[i] = placement.ServerID(i)
		weights[ids[i]] = float64(1 + i%5*2) // speeds 1,3,5,7,9 as in the paper
	}
	s, err := placement.New(tag, ids, placement.Options{HashSeed: 0, Weights: weights})
	if err != nil {
		b.Fatalf("strategy %s init failed: %v", tag, err)
	}
	return s
}

// BenchmarkRendezvousLookup measures weighted-HRW addressing: one FNV
// pass, then one mix plus one log per live member — no allocation.
func BenchmarkRendezvousLookup(b *testing.B) {
	s := newWeightedStrategy(b, placement.StrategyRendezvous)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placement.Lookup(s, keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkWeightedStaticLookup measures the a-priori static partition:
// one FNV pass, one mix, one binary search over the cumulative-weight
// array — no allocation.
func BenchmarkWeightedStaticLookup(b *testing.B) {
	s := newWeightedStrategy(b, placement.StrategyWeightedStatic)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placement.Lookup(s, keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkPowerOfDLookup measures the two-choice sampler with live
// load state: one FNV pass, then d weighted draws — no allocation.
func BenchmarkPowerOfDLookup(b *testing.B) {
	s := newWeightedStrategy(b, placement.StrategyPowerOfD)
	skewTune(b, s)
	keys := benchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placement.Lookup(s, keys[i&1023]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkStrategyLookupBatch measures every registered strategy's
// batch data plane under one shared harness; a newly registered
// strategy gets a sub-benchmark (and the bench gate's attention)
// automatically.
func BenchmarkStrategyLookupBatch(b *testing.B) {
	keys := benchKeys()
	owners := make([]placement.ServerID, len(keys))
	for _, tag := range placement.Names() {
		b.Run(tag, func(b *testing.B) {
			s := newStrategy(b, tag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := s.LookupBatch(keys, owners); n != len(keys) {
					b.Fatalf("batch resolved %d/%d", n, len(keys))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
		})
	}
}

// roundStrategy builds a registered strategy over 100 servers in a
// mid-run control-plane state: three members failed and one feedback
// round applied with every third member carrying four times the load,
// so the bounded ring holds a third of its members shedding. It returns
// the strategy and the round's reports, which keep moving the state
// when tuned again.
func roundStrategy(b *testing.B, tag string) (placement.Strategy, []placement.Report) {
	const n = 100
	ids := make([]placement.ServerID, n)
	reports := make([]placement.Report, n)
	for i := range ids {
		ids[i] = placement.ServerID(i)
		reports[i] = placement.Report{Server: ids[i], Requests: 100, Latency: 0.5}
		if i%3 == 0 {
			reports[i].Requests, reports[i].Latency = 400, 2
		}
	}
	s, err := placement.New(tag, ids, placement.Options{HashSeed: 0})
	if err != nil {
		b.Fatalf("strategy %s init failed: %v", tag, err)
	}
	for _, id := range []placement.ServerID{10, 50, 90} {
		if err := s.Fail(id); err != nil {
			b.Fatal(err)
		}
		reports[id] = placement.Report{Server: id, Failed: true}
	}
	if _, err := s.Tune(reports); err != nil {
		b.Fatal(err)
	}
	return s, reports
}

// BenchmarkStrategyDecode measures what every follower pays per install:
// decoding one round's snapshot of a 100-member strategy.
func BenchmarkStrategyDecode(b *testing.B) {
	for _, tag := range placement.Names() {
		b.Run(tag, func(b *testing.B) {
			s, _ := roundStrategy(b, tag)
			snap := s.Encode()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := placement.Decode(snap, placement.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrategyTune measures the delegate's side of a round on a
// 100-member strategy: Clone the serving state, then Tune it with the
// round's reports.
func BenchmarkStrategyTune(b *testing.B) {
	for _, tag := range placement.Names() {
		b.Run(tag, func(b *testing.B) {
			s, reports := roundStrategy(b, tag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Clone().Tune(reports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
