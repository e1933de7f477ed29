package main

import (
	"fmt"
	"io"
	"math"

	"anurand/internal/benchfmt"
)

// compareRuns diffs two run.json files through benchfmt, with each
// end-to-end metric's bound from BENCHMARK.json as its tolerance. It
// prints one row per (workload, metric) and returns exit code 1 when a
// metric regressed beyond its bound or a workload failed more checks
// than in the base run.
func compareRuns(sp *spec, basePath, curPath string, w io.Writer) (int, error) {
	base, err := benchfmt.ReadFile(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := benchfmt.ReadFile(curPath)
	if err != nil {
		return 0, err
	}
	// Metrics without a bound (attempted) are listed but never gate.
	th := benchfmt.Thresholds{Default: math.Inf(1), PerMetric: make(map[string]float64)}
	for _, m := range sp.EndToEnd {
		th.PerMetric[m.Name] = m.Bound
	}
	rep := benchfmt.Diff(base, cur, th)
	regressions := 0
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, d := range rep.Deltas {
		verdict := d.Class.String()
		bound := "-"
		if tol, ok := th.PerMetric[d.Metric]; ok {
			bound = fmt.Sprintf("%.0f%%", tol*100)
		}
		switch {
		case d.Metric == "failed" && d.New > d.Old:
			verdict = "REGRESSION (more failed checks)"
			regressions++
		case d.Class == benchfmt.Regression || d.Class == benchfmt.ZeroRegression:
			regressions++
		}
		fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %+8.1f%% %6s  %s\n", trimPkg(d.Key), d.Metric, d.Old, d.New, d.Change(), bound, verdict)
	}
	for _, k := range rep.Added {
		fmt.Fprintf(w, "%-20s only in %s\n", trimPkg(k), curPath)
	}
	for _, k := range rep.Removed {
		fmt.Fprintf(w, "%-20s only in %s\n", trimPkg(k), basePath)
	}
	fmt.Fprintf(w, "%d regression(s)\n", regressions)
	if regressions > 0 {
		return 1, nil
	}
	return 0, nil
}
