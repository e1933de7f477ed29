// Command anusim runs one cluster simulation from the command line and
// prints a summary: aggregate and per-server latency, movement, and
// shared-state size.
//
// Usage:
//
//	anusim -policy anu -workload synthetic
//	anusim -policy vp -numvp 30 -workload dfslike
//	anusim -policy prescient -trace /path/to/trace.anut -series
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"anurand/internal/clustersim"
	"anurand/internal/experiment"
	"anurand/internal/policy"
	"anurand/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anusim: ")

	var (
		policyName = flag.String("policy", "anu", "policy: simple | anu | prescient | vp | any registered placement strategy (e.g. chord, chord-bounded)")
		wl         = flag.String("workload", "synthetic", "workload: synthetic | dfslike | hotspot")
		tracePath  = flag.String("trace", "", "replay a trace file instead of generating a workload")
		seed       = flag.Uint64("seed", 1, "workload generator seed")
		numVP      = flag.Int("numvp", 25, "virtual processor count for -policy vp")
		speeds     = flag.String("speeds", "1,3,5,7,9", "comma-separated server speeds")
		interval   = flag.Float64("interval", 120, "tuning interval in seconds")
		demand     = flag.Float64("demand", 0, "override per-request base demand (unit-speed seconds)")
		series     = flag.Bool("series", false, "print per-server latency time series")
		moves      = flag.Bool("moves", false, "print per-round movement records")
		events     = flag.String("events", "", "configuration events, e.g. \"fail:600:2,recover:1200:2,commission:900:5:6\" (kind:time:server[:speed])")
		sanDisks   = flag.Int("san", 0, "enable the shared-disk data path with this many disks")
		sanDemand  = flag.Float64("sandemand", 1.5, "per-request data-transfer demand in disk-seconds (with -san)")
		closed     = flag.Int("closed", 0, "run closed-loop with this many clients instead of replaying the trace")
		thinkTime  = flag.Float64("think", 2.0, "mean client think time in seconds (with -closed)")
	)
	flag.Parse()

	trace, err := loadTrace(*wl, *tracePath, *seed, *demand)
	if err != nil {
		log.Fatal(err)
	}
	speedList, err := parseSpeeds(*speeds)
	if err != nil {
		log.Fatal(err)
	}
	placer, err := buildPolicy(*policyName, trace, speedList, *numVP)
	if err != nil {
		log.Fatal(err)
	}

	if *closed > 0 {
		ccfg := clustersim.ClosedConfig{
			Seed:           *seed,
			Speeds:         speedList,
			Policy:         placer,
			FileSets:       trace.FileSets,
			Clients:        *closed,
			ThinkTime:      *thinkTime,
			MetadataDemand: trace.Requests[0].Demand,
			TuneInterval:   *interval,
			Duration:       trace.Duration,
		}
		if *sanDisks > 0 {
			ccfg.SAN = clustersim.SANConfig{Enabled: true, Disks: *sanDisks, TransferDemand: *sanDemand}
		}
		cres, err := clustersim.RunClosed(ccfg)
		if err != nil {
			log.Fatal(err)
		}
		printClosedResult(&ccfg, cres)
		return
	}

	cfg := clustersim.DefaultConfig(trace, placer)
	cfg.Speeds = speedList
	cfg.TuneInterval = *interval
	if cfg.Events, err = parseEvents(*events); err != nil {
		log.Fatal(err)
	}
	if *sanDisks > 0 {
		cfg.SAN = clustersim.SANConfig{Enabled: true, Disks: *sanDisks, TransferDemand: *sanDemand}
	}
	res, err := clustersim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res, *series, *moves)
	if a, ok := placer.(*policy.ANU); ok {
		for _, adv := range a.Advisories() {
			fmt.Printf("ADVISORY: server %d pinned at the minimum region for %d rounds — likely incompetent for this cluster\n",
				adv.Server, adv.Rounds)
		}
	}
}

// printClosedResult summarizes a closed-loop run.
func printClosedResult(cfg *clustersim.ClosedConfig, res *clustersim.ClosedResult) {
	fmt.Printf("mode              closed-loop (%d clients, think %.1fs)\n", cfg.Clients, cfg.ThinkTime)
	fmt.Printf("cycles            %d (%.2f/s throughput)\n", res.Cycles, res.Throughput)
	fmt.Printf("metadata latency  %.4f s\n", res.MetadataLatency.Mean())
	fmt.Printf("cycle latency     %.4f s\n", res.CycleLatency.Mean())
	fmt.Printf("tuning rounds     %d\n", res.TuningRounds)
	if res.SANUtilization > 0 {
		fmt.Printf("SAN utilization   %.3f\n", res.SANUtilization)
	}
}

// parseEvents parses "kind:time:server[:speed]" items separated by
// commas; kinds are fail, recover, commission, decommission.
func parseEvents(s string) ([]clustersim.Event, error) {
	if s == "" {
		return nil, nil
	}
	var events []clustersim.Event
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("event %q: want kind:time:server[:speed]", item)
		}
		var kind clustersim.EventKind
		switch parts[0] {
		case "fail":
			kind = clustersim.Fail
		case "recover":
			kind = clustersim.Recover
		case "commission":
			kind = clustersim.Commission
		case "decommission":
			kind = clustersim.Decommission
		default:
			return nil, fmt.Errorf("event %q: unknown kind %q", item, parts[0])
		}
		at, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("event %q: bad time: %v", item, err)
		}
		srv, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("event %q: bad server: %v", item, err)
		}
		ev := clustersim.Event{Time: at, Kind: kind, Server: clustersim.ServerID(srv)}
		if kind == clustersim.Commission {
			if len(parts) < 4 {
				return nil, fmt.Errorf("event %q: commission needs a speed", item)
			}
			if ev.Speed, err = strconv.ParseFloat(parts[3], 64); err != nil {
				return nil, fmt.Errorf("event %q: bad speed: %v", item, err)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

func loadTrace(wl, path string, seed uint64, demand float64) (*workload.Trace, error) {
	if path != "" {
		return workload.ReadFile(path)
	}
	switch wl {
	case "synthetic":
		cfg := workload.DefaultSynthetic()
		cfg.Seed = seed
		if demand > 0 {
			cfg.BaseDemand = demand
		}
		return cfg.Generate()
	case "dfslike":
		cfg := workload.DefaultDFSLike()
		cfg.Seed = seed
		if demand > 0 {
			cfg.BaseDemand = demand
		}
		return cfg.Generate()
	case "hotspot":
		cfg := workload.DefaultHotspot()
		cfg.Seed = seed
		if demand > 0 {
			cfg.BaseDemand = demand
		}
		return cfg.Generate()
	default:
		return nil, fmt.Errorf("unknown workload %q (want synthetic, dfslike or hotspot)", wl)
	}
}

func parseSpeeds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	speeds := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad speed %q: %v", p, err)
		}
		speeds = append(speeds, v)
	}
	return speeds, nil
}

// buildPolicy builds the named policy over servers 0..len(speeds)-1.
// The -speeds flag is the a-priori capacity knowledge handed to
// weight-aware strategies; others ignore the weights.
func buildPolicy(name string, trace *workload.Trace, speeds []float64, numVP int) (policy.Placer, error) {
	servers := make([]policy.ServerID, len(speeds))
	weights := make(map[policy.ServerID]float64, len(speeds))
	for i, sp := range speeds {
		servers[i] = policy.ServerID(i)
		if sp > 0 {
			weights[servers[i]] = sp
		}
	}
	return experiment.BuildPolicy(experiment.PolicyName(name), trace, servers, weights, 42, numVP)
}

func printResult(res *clustersim.Result, series, moves bool) {
	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("completed         %d (dropped %d, rerouted %d)\n", res.Completed, res.Dropped, res.Rerouted)
	fmt.Printf("mean latency      %.4f s\n", res.MeanLatency())
	fmt.Printf("steady latency    %.4f s (after 25%% of the run)\n", res.SteadyMeanLatency())
	fmt.Printf("latency stddev    %.4f s\n", res.LatencyStdDev())
	fmt.Printf("tuning rounds     %d\n", res.TuningRounds)
	fmt.Printf("file sets moved   %d (%.2f%% of workload)\n", res.TotalMoved, 100*res.TotalWorkMovedFrac)
	fmt.Printf("shared state      %d bytes\n", res.SharedStateBytes)
	if res.SAN != nil {
		fmt.Printf("SAN               %d disks, %d transfers, end-to-end %.4f s, utilization %.3f\n",
			res.SAN.Disks, res.SAN.Transfers, res.SAN.EndToEnd.Mean(), res.SAN.UtilizationInWindow)
	}
	fmt.Println()
	fmt.Printf("%-8s %-7s %-9s %-12s %-12s %-10s\n", "server", "speed", "served", "mean lat", "sd lat", "busy (s)")
	for _, id := range res.ServerIDs() {
		s := res.Servers[id]
		fmt.Printf("%-8d %-7.1f %-9d %-12.4f %-12.4f %-10.0f\n",
			id, s.Speed, s.Served, s.Latency.Mean(), s.Latency.StdDev(), s.BusyTime)
	}
	if series {
		fmt.Println()
		n := int(res.Duration/120) + 1
		fmt.Print("minute")
		for _, id := range res.ServerIDs() {
			fmt.Printf("\tsrv%d", id)
		}
		fmt.Println()
		for w := 0; w < n; w++ {
			fmt.Printf("%d", w*2)
			for _, id := range res.ServerIDs() {
				m := res.Servers[id].Series.At(w).Mean()
				if res.Servers[id].Series.At(w).N() == 0 {
					m = math.NaN()
				}
				fmt.Printf("\t%.3f", m)
			}
			fmt.Println()
		}
	}
	if moves {
		fmt.Println()
		fmt.Printf("%-6s %-10s %-8s %-10s\n", "round", "time", "moved", "work%")
		for _, m := range res.Moves {
			fmt.Printf("%-6d %-10.0f %-8d %-10.3f\n", m.Round, m.Time, m.FileSetsMoved, 100*m.WorkMovedFrac)
		}
	}
	os.Stdout.Sync()
}
