// Command benchdiff is the repository's one benchmark comparator. It
// diffs two BENCH_*.json files (recorded by cmd/benchjson) across
// every metric they share, renders a markdown report, and gates on one
// metric: it exits 1 when that metric regressed on any benchmark
// present in both files.
//
// Usage:
//
//	benchdiff old.json new.json                              # gate ns/op, report to stdout
//	benchdiff -metric allocs/op -o report.md old.json new.json
//
// The thresholds are benchfmt.DefaultThresholds with the gated
// metric's noise floor removed, so the gate is exact on that metric:
//
//   - ns/op fails above +30%, and a 0 ns/op baseline is skipped (it is
//     below the clock's resolution, not a guarantee);
//   - allocs/op fails on any rise, including any rise from a
//     0 allocs/op baseline;
//   - a benchmark found in only one file is listed in the report and
//     never gates.
//
// The other metrics are classified with their floors and tolerances and
// reported, but never change the exit status. A gate that compared
// nothing is an error, not a pass: benchdiff exits 2 when no benchmark
// in both files carries the gated metric, which is what happens when
// the two files were recorded at different -cpu settings (Go appends
// -N to benchmark names when GOMAXPROCS is N > 1).
//
// Timing metrics move with hardware; count metrics (allocs/op, B/op)
// are machine-independent. See the bench-gate and bench-gate-allocs
// make targets.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"anurand/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the CLI.
// It returns 0 when the gate passes, 1 on a regression of the gated
// metric, and 2 on bad usage, an unreadable file or an empty overlap.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out    = fs.String("o", "", "write the markdown report to this file (default stdout)")
		metric = fs.String("metric", "ns/op", "metric to gate on")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchdiff [-o report.md] [-metric ns/op] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	basePath, curPath := fs.Arg(0), fs.Arg(1)

	base, err := benchfmt.ReadFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cur, err := benchfmt.ReadFile(curPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	th := benchfmt.DefaultThresholds()
	delete(th.Floors, *metric)
	report := benchfmt.Diff(base, cur, th)
	report.BaseLabel = basePath
	report.CurLabel = curPath

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		dst = f
	}
	if err := report.Markdown(dst); err != nil {
		fmt.Fprintf(stderr, "benchdiff: writing report: %v\n", err)
		return 2
	}

	compared, failed := 0, 0
	for _, d := range report.Deltas {
		if d.Metric != *metric {
			continue
		}
		compared++
		if d.Class == benchfmt.Regression || d.Class == benchfmt.ZeroRegression {
			failed++
			fmt.Fprintf(stderr, "benchdiff: %s %s %.4g -> %.4g: %s\n", d.Key, d.Metric, d.Old, d.New, d.Class)
		}
	}
	fmt.Fprintf(stderr, "benchdiff: compared %d benchmarks on %s (%s vs %s): %d regressions\n",
		compared, *metric, basePath, curPath, failed)
	switch {
	case compared == 0:
		fmt.Fprintf(stderr, "benchdiff: no benchmark in both files has %s; were they recorded at the same -cpu?\n", *metric)
		return 2
	case failed > 0:
		return 1
	}
	return 0
}
