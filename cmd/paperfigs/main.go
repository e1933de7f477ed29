// Command paperfigs regenerates every results figure of the paper
// (Figures 4-8) as text tables and ASCII charts, or CSV for plotting.
//
// Usage:
//
//	paperfigs              # all figures
//	paperfigs -fig 5       # one figure
//	paperfigs -fig 8 -csv  # machine-readable output
//	paperfigs -quick       # scaled-down workloads (~seconds)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"anurand/internal/clustersim"
	"anurand/internal/experiment"
	"anurand/internal/policy"
	"anurand/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 4 | 5 | 6a | 6b | 7 | 8 | hotspot | san | strategies | all")
		seed    = flag.Uint64("seed", 1, "workload seed")
		quick   = flag.Bool("quick", false, "scaled-down workloads for a fast pass")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables and charts")
		rep     = flag.Int("replicate", 0, "run the Figure 5 comparison across this many seeds and print across-seed aggregates")
		workers = flag.Int("workers", 0, "simulation cells run concurrently (0 = one per CPU, 1 = sequential; results are identical)")
	)
	flag.Parse()

	cfg := experiment.DefaultConfig()
	cfg.Seed = *seed
	cfg.Quick = *quick
	cfg.Workers = *workers
	suite := experiment.NewSuite(cfg)

	if *rep > 0 {
		if err := replicate(os.Stdout, cfg, *rep, *csv); err != nil {
			log.Fatal(err)
		}
		return
	}

	figs := map[string]func(io.Writer, *experiment.Suite, bool) error{
		"4":          fig4,
		"5":          fig5,
		"6a":         fig6a,
		"6b":         fig6b,
		"7":          fig7,
		"8":          fig8,
		"hotspot":    extHotspot,
		"san":        extSAN,
		"strategies": strategiesFig,
	}
	if *fig == "all" {
		for _, name := range []string{"4", "5", "6a", "6b", "7", "8", "hotspot", "san", "strategies"} {
			if err := figs[name](os.Stdout, suite, *csv); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := figs[*fig]
	if !ok {
		log.Fatalf("unknown figure %q (want 4, 5, 6a, 6b, 7, 8, hotspot, san, strategies or all)", *fig)
	}
	if err := run(os.Stdout, suite, *csv); err != nil {
		log.Fatal(err)
	}
}

// latencySeries renders one latency-over-time figure (4 or 5).
func latencySeries(w io.Writer, title string, results map[experiment.PolicyName]*clustersim.Result, csv bool) error {
	fmt.Fprintf(w, "== %s ==\n", title)
	var sample *clustersim.Result
	for _, r := range results {
		sample = r
	}
	windows := int(sample.Duration/120) + 1

	for _, name := range experiment.AllPolicies {
		res := results[name]
		tb := report.NewTable(header(res)...)
		chart := report.Chart{
			Title:  fmt.Sprintf("%s: per-server mean latency (s) over time", name),
			XLabel: "minutes",
			XStep:  2,
			LogY:   true,
			Height: 12,
		}
		ids := res.ServerIDs()
		for _, id := range ids {
			chart.Series = append(chart.Series, report.Series{
				Name:   fmt.Sprintf("srv%d(x%g)", id, res.Servers[id].Speed),
				Values: res.Servers[id].Series.Means(windows),
			})
		}
		for w := 0; w < windows; w++ {
			row := []any{w * 2}
			for i := range ids {
				row = append(row, chart.Series[i].Values[w])
			}
			tb.AddRowf(row...)
		}
		if csv {
			fmt.Fprintf(w, "# policy=%s\n", name)
			if err := tb.WriteCSV(w); err != nil {
				return err
			}
			continue
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  aggregate: mean=%.3fs sd=%.3fs moved=%d state=%dB\n\n",
			res.MeanLatency(), res.LatencyStdDev(), res.TotalMoved, res.SharedStateBytes)
	}
	return nil
}

func header(res *clustersim.Result) []string {
	h := []string{"minute"}
	for _, id := range res.ServerIDs() {
		h = append(h, fmt.Sprintf("srv%d", id))
	}
	return h
}

func fig4(w io.Writer, s *experiment.Suite, csv bool) error {
	results, err := s.Fig4()
	if err != nil {
		return err
	}
	return latencySeries(w, "Figure 4: server latency, DFSTrace-like workload", results, csv)
}

func fig5(w io.Writer, s *experiment.Suite, csv bool) error {
	results, err := s.Fig5()
	if err != nil {
		return err
	}
	return latencySeries(w, "Figure 5: server latency, synthetic workload", results, csv)
}

func fig6a(w io.Writer, s *experiment.Suite, csv bool) error {
	rows, err := s.Fig6()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 6(a): aggregate latency — mean, deviation, and tails ==")
	tb := report.NewTable("policy", "mean latency (s)", "stddev (s)", "p50 (s)", "p95 (s)", "p99 (s)", "p999 (s)")
	for _, row := range rows {
		tb.AddRowf(string(row.Policy), row.MeanLatency, row.StdDev, row.P50, row.P95, row.P99, row.P999)
	}
	if csv {
		return tb.WriteCSV(w)
	}
	return tb.Render(w)
}

func fig6b(w io.Writer, s *experiment.Suite, csv bool) error {
	rows, err := s.Fig6()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 6(b): per-server mean latency (consistency) ==")
	tb := report.NewTable("policy", "server", "speed", "requests", "mean latency (s)")
	speeds := experiment.Speeds()
	for _, row := range rows {
		ids := make([]policy.ServerID, 0, len(row.PerServerMean))
		for id := range row.PerServerMean {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			tb.AddRowf(string(row.Policy), int(id), speeds[id],
				int(row.PerServerCount[id]), row.PerServerMean[id])
		}
	}
	if csv {
		return tb.WriteCSV(w)
	}
	return tb.Render(w)
}

func fig7(w io.Writer, s *experiment.Suite, csv bool) error {
	moves, err := s.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 7: ANU load movement per tuning round ==")
	tb := report.NewTable("round", "fileSetsMoved", "workMoved%", "cumFileSets", "cumWork%")
	var cum int
	var cumWork float64
	movedSeries := make([]float64, 0, len(moves))
	cumSeries := make([]float64, 0, len(moves))
	for _, m := range moves {
		cum += m.FileSetsMoved
		cumWork += 100 * m.WorkMovedFrac
		tb.AddRowf(m.Round, m.FileSetsMoved, 100*m.WorkMovedFrac, cum, cumWork)
		movedSeries = append(movedSeries, float64(m.FileSetsMoved))
		cumSeries = append(cumSeries, cumWork)
	}
	if csv {
		return tb.WriteCSV(w)
	}
	chart := report.Chart{
		Title:  "file sets moved per round (*) and cumulative work moved % (o)",
		XLabel: "round",
		XStart: 1,
		XStep:  1,
		Height: 10,
		Series: []report.Series{
			{Name: "moved/round", Values: movedSeries},
			{Name: "cum work %", Values: cumSeries},
		},
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "  total file-set moves: %d over %d rounds\n", cum, len(moves))
	return tb.Render(w)
}

func fig8(w io.Writer, s *experiment.Suite, csv bool) error {
	res, err := s.Fig8(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 8: virtual processor count vs latency and shared state ==")
	if err := fig8Sweep(w, "moderate utilization (~71%, the Figure 5 workload)", res.Moderate, res.ModerateRefs, csv); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return fig8Sweep(w, "hot utilization (~80%, granularity effect resolves)", res.Hot, res.HotRefs, csv)
}

func fig8Sweep(w io.Writer, label string, points []experiment.Fig8Point, refs experiment.Fig8Refs, csv bool) error {
	fmt.Fprintf(w, "-- %s --\n", label)
	tb := report.NewTable("numVP", "mean latency (s)", "steady (s)", "stddev (s)", "shared state (B)")
	var lats []float64
	for _, pt := range points {
		tb.AddRowf(pt.NumVP, pt.MeanLatency, pt.SteadyLatency, pt.StdDev, pt.SharedStateBytes)
		lats = append(lats, pt.SteadyLatency)
	}
	if csv {
		if err := tb.WriteCSV(w); err != nil {
			return err
		}
	} else {
		chart := report.Chart{
			Title:  "VP steady latency vs VP count (references: anu, prescient)",
			XLabel: "numVP",
			XStart: float64(points[0].NumVP),
			XStep:  float64(points[1].NumVP - points[0].NumVP),
			Height: 10,
			Series: []report.Series{
				{Name: "vp", Values: lats},
				{Name: "anu ref", Values: constSeries(refs.ANUSteady, len(lats))},
				{Name: "prescient ref", Values: constSeries(refs.PrescientSteady, len(lats))},
			},
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		if err := tb.Render(w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "references: anu mean=%.3fs steady=%.3fs state=%dB; prescient mean=%.3fs steady=%.3fs state=%dB\n",
		refs.ANULatency, refs.ANUSteady, refs.ANUSharedState,
		refs.PrescientLatency, refs.PrescientSteady, refs.PrescientState)
	if refs.ANUCrossoverAt >= 0 {
		fmt.Fprintf(w, "VP matches ANU steady latency from %d virtual processors upward\n", refs.ANUCrossoverAt)
	}
	return nil
}

// extHotspot renders the extension experiment: the four systems under
// the rotating-hotspot workload.
func extHotspot(w io.Writer, s *experiment.Suite, csv bool) error {
	results, err := s.ExtHotspot()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Extension: rotating hotspot workload (hot file sets shift every 25 min) ==")
	tb := report.NewTable("policy", "mean latency (s)", "steady (s)", "stddev (s)", "p99 (s)", "moved")
	for _, name := range experiment.AllPolicies {
		res := results[name]
		tb.AddRowf(string(name), res.MeanLatency(), res.SteadyMeanLatency(), res.LatencyStdDev(), res.LatencyP99(), res.TotalMoved)
	}
	if csv {
		return tb.WriteCSV(w)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "(prescient and vp assign from long-run average loads — the paper's")
	fmt.Fprintln(w, " perfect-knowledge model — which a rotating hot set defeats; ANU's")
	fmt.Fprintln(w, " latency feedback follows the shifts)")
	return nil
}

// extSAN renders the shared-disk data-path extension: SAN utilization
// and client end-to-end latency per system.
func extSAN(w io.Writer, s *experiment.Suite, csv bool) error {
	results, err := s.ExtSAN()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Extension: SAN data path (Section 3 motivation) ==")
	tb := report.NewTable("policy", "metadata mean (s)", "end-to-end mean (s)", "SAN utilization")
	for _, name := range experiment.AllPolicies {
		res := results[name]
		tb.AddRowf(string(name), res.MeanLatency(), res.SAN.EndToEnd.Mean(), res.SAN.UtilizationInWindow)
	}
	if csv {
		return tb.WriteCSV(w)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "(clients blocked on an imbalanced metadata tier defer their data")
	fmt.Fprintln(w, " transfers, leaving the SAN underutilized within the trace window)")
	return nil
}

// strategiesFig renders the registry-driven comparison: the paper's
// four systems plus every additionally registered placement strategy
// under the synthetic workload, one row per scheme.
func strategiesFig(w io.Writer, s *experiment.Suite, csv bool) error {
	results, err := s.StrategyComparison()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Strategy comparison: all registered schemes, synthetic workload ==")
	tb := report.NewTable("policy", "mean latency (s)", "steady (s)", "p50 (s)", "p99 (s)", "p999 (s)", "moved", "state (B)")
	for _, name := range experiment.Policies() {
		res, ok := results[name]
		if !ok {
			continue
		}
		tb.AddRowf(string(name), res.MeanLatency(), res.SteadyMeanLatency(),
			res.LatencyP50(), res.LatencyP99(), res.LatencyP999(), res.TotalMoved, res.SharedStateBytes)
	}
	if csv {
		return tb.WriteCSV(w)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "(rows beyond the canonical four come straight from the placement")
	fmt.Fprintln(w, " registry; register a strategy and it appears here automatically)")
	return nil
}

func constSeries(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// replicate renders the across-seed Figure 5 aggregates.
func replicate(w io.Writer, cfg experiment.Config, n int, csv bool) error {
	rows, err := experiment.ReplicateFig5(cfg, n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure 5 across %d seeds (mean over seeds, with across-seed sd) ==\n", n)
	tb := report.NewTable("policy", "mean lat (s)", "sd over seeds", "steady (s)", "moves/run")
	for _, row := range rows {
		tb.AddRowf(string(row.Policy),
			row.MeanLatency.Mean(), row.MeanLatency.StdDev(),
			row.SteadyLatency.Mean(), row.Moved.Mean())
	}
	if csv {
		return tb.WriteCSV(w)
	}
	return tb.Render(w)
}
