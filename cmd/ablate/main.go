// Command ablate sweeps the ANU controller's design parameters over the
// synthetic workload and reports aggregate latency, consistency, and
// movement for each configuration — the ablation study for the design
// choices DESIGN.md calls out (feedback exponent, step clamps, dead
// band, smoothing) plus the movement-cost model.
//
// Usage:
//
//	ablate                 # controller parameter grid
//	ablate -what movecost  # cache flush / cold penalty sweep
//	ablate -what probes    # re-hash probe budget sweep
package main

import (
	"flag"
	"fmt"
	"log"

	"anurand/internal/anu"
	"anurand/internal/chordring"
	"anurand/internal/clustersim"
	"anurand/internal/hashx"
	"anurand/internal/placement"
	"anurand/internal/policy"
	"anurand/internal/rng"
	"anurand/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	what := flag.String("what", "controller", "sweep: controller | movecost | probes | vpaddr | dchoice")
	seed := flag.Uint64("seed", 1, "workload seed")
	demand := flag.Float64("demand", 0, "override per-request base demand")
	flag.Parse()

	wcfg := workload.DefaultSynthetic()
	wcfg.Seed = *seed
	if *demand > 0 {
		wcfg.BaseDemand = *demand
	}
	trace, err := wcfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	switch *what {
	case "controller":
		sweepController(trace)
	case "movecost":
		sweepMoveCost(trace)
	case "probes":
		sweepProbes(trace)
	case "vpaddr":
		sweepVPAddressing()
	case "dchoice":
		sweepDChoice()
	default:
		log.Fatalf("unknown sweep %q", *what)
	}
}

func runANU(trace *workload.Trace, ctl anu.ControllerConfig, mutate func(*clustersim.Config)) (*clustersim.Result, error) {
	servers := []policy.ServerID{0, 1, 2, 3, 4}
	placer, err := policy.NewANU(hashx.NewFamily(42), trace.FileSets, servers, ctl)
	if err != nil {
		return nil, err
	}
	cfg := clustersim.DefaultConfig(trace, placer)
	if mutate != nil {
		mutate(&cfg)
	}
	return clustersim.Run(cfg)
}

func report(label string, res *clustersim.Result) {
	fmt.Printf("%-44s mean=%8.3fs sd=%8.3fs spread=%5.2f moved=%4d work%%=%6.1f\n",
		label, res.MeanLatency(), res.LatencyStdDev(),
		res.ConsistencySpread(500), res.TotalMoved, 100*res.TotalWorkMovedFrac)
}

func sweepController(trace *workload.Trace) {
	fmt.Println("# ANU controller parameter ablation (synthetic workload)")
	base := anu.DefaultControllerConfig()
	fmt.Printf("# baseline: gamma=%.2f step=%.2f shrink=%.2f band=%.2f smooth=%.2f\n\n",
		base.Gamma, base.MaxStep, base.MaxShrink, base.DeadBand, base.Smoothing)

	for _, gamma := range []float64{0.15, 0.2, 0.3} {
		for _, step := range []float64{1.15, 1.25, 1.4} {
			for _, smooth := range []float64{0.3, 0.5} {
				for _, band := range []float64{0.2, 0.3} {
					cfg := base
					cfg.Gamma = gamma
					cfg.MaxStep = step
					cfg.MaxShrink = step
					cfg.Smoothing = smooth
					cfg.DeadBand = band
					res, err := runANU(trace, cfg, nil)
					if err != nil {
						log.Fatal(err)
					}
					report(fmt.Sprintf("gamma=%.2f step=%.2f smooth=%.2f band=%.2f", gamma, step, smooth, band), res)
				}
			}
		}
	}
}

func sweepMoveCost(trace *workload.Trace) {
	fmt.Println("# movement-cost ablation: cache flush time and cold penalty")
	ctl := anu.DefaultControllerConfig()
	for _, flush := range []float64{0, 0.25, 1, 5} {
		for _, cold := range []float64{1, 2, 5} {
			res, err := runANU(trace, ctl, func(c *clustersim.Config) {
				c.MoveFlushTime = flush
				c.ColdPenalty = cold
			})
			if err != nil {
				log.Fatal(err)
			}
			report(fmt.Sprintf("flush=%.2fs cold=%.0fx", flush, cold), res)
		}
	}
}

// sweepDChoice measures the SIEVE multiple-choice placement heuristic:
// the worst server's excess over the fair share m/n as the number of
// candidate probes d grows. d=1 is plain ANU lookup; d=2 is the classic
// power-of-two-choices collapse the paper's m/n+1 load bound relies on.
func sweepDChoice() {
	fmt.Println("# multiple-choice placement: worst-server excess over m/n")
	const n, m = 16, 4800
	fmt.Printf("%-8s %-18s %-18s\n", "d", "max excess (items)", "max/mean ratio")
	for _, d := range []int{1, 2, 3, 4} {
		ids := make([]placement.ServerID, n)
		for i := range ids {
			ids[i] = placement.ServerID(i)
		}
		s, err := placement.New(placement.StrategyANU, ids, placement.Options{HashSeed: 42})
		if err != nil {
			log.Fatal(err)
		}
		mp := s.(*placement.ANU).Map() // LookupD is an ANU-specific probe-count experiment
		counts := make(map[anu.ServerID]float64, n)
		for i := 0; i < m; i++ {
			id, _ := mp.LookupD(fmt.Sprintf("fileset/%05d", i), d, func(s anu.ServerID) float64 { return counts[s] })
			counts[id]++
		}
		mean := float64(m) / n
		worst := 0.0
		for _, c := range counts {
			if c > worst {
				worst = c
			}
		}
		fmt.Printf("%-8d %-18.0f %-18.3f\n", d, worst-mean, worst/mean)
	}
}

// sweepVPAddressing quantifies the paper's footnote 1: a VP system can
// replicate the full VP->server table at every node (O(V) state, one
// probe) or keep it in a Chord-style ring (O(log n) state per node,
// O(log n) probes). ANU's region table is the third point: O(k) state,
// ~2 hash probes, no ring maintenance. Both measured schemes are built
// through the placement registry — the same construction path the
// networked runtime uses.
func sweepVPAddressing() {
	fmt.Println("# VP addressing: replicated table vs Chord-style ring vs ANU")
	fmt.Printf("%-26s %-22s %-14s\n", "scheme", "state per node (B)", "probes/lookup")
	for _, n := range []int{5, 50, 500} {
		numVP := 10 * n // the paper's v=10 upper end
		fmt.Printf("-- %d servers, %d virtual processors --\n", n, numVP)
		fmt.Printf("%-26s %-22d %-14.1f\n", "replicated VP table", 8*numVP, 1.0)

		ids := make([]placement.ServerID, n)
		for i := range ids {
			ids[i] = placement.ServerID(i)
		}
		opts := placement.Options{HashSeed: 42}
		cs, err := placement.New(placement.StrategyChord, ids, opts)
		if err != nil {
			log.Fatal(err)
		}
		router := chordring.NewRouter(cs.(*placement.Chord).Ring().Ring())
		src := rng.New(uint64(n))
		total, lookups := 0, 2000
		for i := 0; i < lookups; i++ {
			_, hops, err := router.Route(chordring.NodeID(ids[src.Intn(n)]), fmt.Sprintf("vp/%d", i%numVP))
			if err != nil {
				log.Fatal(err)
			}
			total += hops
		}
		fmt.Printf("%-26s %-22d %-14.1f\n", "chord ring", router.StateBytes(), float64(total)/float64(lookups))

		as, err := placement.New(placement.StrategyANU, ids, opts)
		if err != nil {
			log.Fatal(err)
		}
		probes, keyLookups := 0, 2000
		for i := 0; i < keyLookups; i++ {
			_, p, _ := placement.LookupProbes(as, fmt.Sprintf("fs/%d", i))
			probes += p
		}
		fmt.Printf("%-26s %-22d %-14.1f\n", "anu region table", as.SharedStateSize(), float64(probes)/float64(keyLookups))
	}
}

func sweepProbes(trace *workload.Trace) {
	fmt.Println("# re-hash probe budget ablation (fallback engages below ~8 probes)")
	ctl := anu.DefaultControllerConfig()
	servers := []policy.ServerID{0, 1, 2, 3, 4}
	for _, probes := range []int{1, 2, 4, 8, 64} {
		placer, err := policy.NewANU(hashx.NewFamily(42), trace.FileSets, servers, ctl)
		if err != nil {
			log.Fatal(err)
		}
		placer.Map().SetMaxProbes(probes)
		cfg := clustersim.DefaultConfig(trace, placer)
		res, err := clustersim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("maxprobes=%d", probes), res)
	}
}
