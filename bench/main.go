// Command bench is the repository benchmark. It drives the placement
// runtime, its tuning loop and the figure simulator through their public
// APIs on four workloads, prints every metric with its unit and sample
// count, checks that the outputs are correct, and exits non-zero when a
// check fails.
//
// From the repository root:
//
//	bash bench/run.sh --workload rounds-n50 --seed 1 --seconds 20 --trace 0
//
// or, inside bench/:
//
//	go run . -seed 1                   # every workload in turn
//	go run . -trace 1                  # also the traced run and per-layer metrics
//	go run . -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Untraced, the metrics are the
// end-to-end metrics listed in BENCHMARK.json; with -trace 1 they are the
// per-layer metrics. Results are also written to bench/out: run.json
// (end-to-end, benchfmt format), and when traced layers.json and
// trace-<workload>.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"anurand/internal/benchfmt"
)

// opts are the settings of one workload run.
type opts struct {
	seed   uint64
	window time.Duration
	trace  bool
	setups int // times to repeat set-up; 0 means the workload's own count
	outDir string
}

func (o opts) setupsOr(n int) int {
	if o.setups > 0 {
		return o.setups
	}
	return n
}

// workloads run in this order. sim-sweep goes first: it is the CPU-bound
// workload most exposed to a host slowing down under sustained load.
var workloads = []struct {
	name string
	run  func(opts) (*result, error)
}{
	{"sim-sweep", runSweep},
	{"serve-failover", runServe},
	{"rounds-n50", func(o opts) (*result, error) { return runRounds("rounds-n50", roundsN50, o) }},
	{"rounds-n100-bounded", func(o opts) (*result, error) { return runRounds("rounds-n100-bounded", roundsN100, o) }},
}

// spec is the part of BENCHMARK.json the command reads.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchPkg keys this command's entries in benchfmt files.
const benchPkg = "anurand/bench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all, in order)")
	seed := fs.Uint64("seed", 1, "seeds the fabric loss, the key set and the simulator trace")
	seconds := fs.Int("seconds", 0, "measured window per workload, in seconds (default: run_seconds in BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 adds a traced window and reports the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two run.json files given as arguments, applying the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two run.json files")
			return 2
		}
		code, err := compareRuns(sp, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return code
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	o := opts{seed: *seed, window: time.Duration(sp.RunSeconds) * time.Second, trace: *trace == 1, outDir: filepath.Join(root, "bench", "out")}
	if *seconds > 0 {
		o.window = time.Duration(*seconds) * time.Second
	}
	var names []string
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *only)
		return 2
	}
	results, err := runWorkloads(names, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := resultLine(results, sp, o.trace, len(names) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	for _, res := range results {
		if res.failed > 0 {
			return 1
		}
	}
	return 0
}

// runWorkloads runs each named workload, prints its metrics and writes
// the result files.
func runWorkloads(names []string, o opts, stdout io.Writer) ([]*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# anurand bench: seed=%d window=%v trace=%v %s\n", o.seed, o.window, o.trace, hostLabel())
	var results []*result
	for _, name := range names {
		for _, w := range workloads {
			if w.name != name {
				continue
			}
			res, err := w.run(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			printResult(stdout, res)
			if res.spans != nil {
				printSelfTimes(stdout, res.workload, res.spans)
				if err := writeSpans(filepath.Join(o.outDir, "trace-"+name+".jsonl"), res.spans.spans); err != nil {
					return nil, err
				}
			}
			results = append(results, res)
		}
	}
	runFile := &benchfmt.File{Goos: runtime.GOOS, Goarch: runtime.GOARCH, CPU: hostLabel(), Raw: []string{}}
	layers := &benchfmt.File{Goos: runtime.GOOS, Goarch: runtime.GOARCH, CPU: hostLabel(), Raw: []string{}}
	for _, res := range results {
		e2e := map[string]float64{"attempted": float64(res.attempted), "failed": float64(res.failed)}
		per := make(map[string]float64)
		for name, m := range res.metrics {
			if endToEnd[name] {
				e2e[name] = m.Value
			} else {
				per[name] = m.Value
			}
		}
		runFile.Benchmarks = append(runFile.Benchmarks, benchfmt.Benchmark{Pkg: benchPkg, Name: res.workload, N: int64(res.attempted), Metrics: e2e})
		layers.Benchmarks = append(layers.Benchmarks, benchfmt.Benchmark{Pkg: benchPkg, Name: res.workload, N: int64(res.attempted), Metrics: per})
	}
	if err := benchfmt.WriteFile(runFile, filepath.Join(o.outDir, "run.json")); err != nil {
		return nil, err
	}
	if o.trace {
		if err := benchfmt.WriteFile(layers, filepath.Join(o.outDir, "layers.json")); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// endToEnd names the metrics every workload reports from its untraced
// window; everything else a workload sets is a per-layer metric. The
// operation's p90 and p99 are per-layer: on a shared host a few minutes
// of disk or CPU contention move them by more than any usable bound.
var endToEnd = map[string]bool{
	"setup_s": true, "op_ms_mean": true, "op_ms_p50": true, "cpu_ms_per_op": true,
}

func hostLabel() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "## %s: attempted=%d failed=%d\n", res.workload, res.attempted, res.failed)
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if endToEnd[names[i]] != endToEnd[names[j]] {
			return endToEnd[names[i]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := res.metrics[name]
		fmt.Fprintf(w, "%-44s %16.6f %-9s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine builds the closing JSON line: the end-to-end metrics, or with
// tracing the per-layer ones, each exactly as listed in BENCHMARK.json.
// A per-layer metric of a layer the workload does not exercise reads 0.
// With several workloads, names are prefixed with "<workload>/".
func resultLine(results []*result, sp *spec, traced, prefix bool) (string, error) {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	line := jsonLine{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, res := range results {
		line.Attempted += res.attempted
		line.Failed += res.failed
		for _, sm := range want {
			m, ok := res.metrics[sm.Name]
			if !ok && !traced {
				return "", fmt.Errorf("%s: end-to-end metric %s was not measured", res.workload, sm.Name)
			}
			if ok && m.Unit != sm.Unit {
				return "", fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", res.workload, sm.Name, m.Unit, sm.Unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return "", fmt.Errorf("%s: metric %s is %v", res.workload, sm.Name, m.Value)
			}
			key := sm.Name
			if prefix {
				key = res.workload + "/" + key
			}
			line.Metrics[key] = jsonMetric{Value: m.Value, Unit: sm.Unit}
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	return string(b), err
}

// findRoot returns the nearest directory at or above the working
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("no BENCHMARK.json in the working directory or above it")
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if sp.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	for _, m := range sp.EndToEnd {
		if !endToEnd[m.Name] {
			return nil, fmt.Errorf("%s: end-to-end metric %q is not one this benchmark measures", path, m.Name)
		}
	}
	return &sp, nil
}

// trimPkg turns a benchfmt key back into a workload name.
func trimPkg(key string) string { return strings.TrimPrefix(key, benchPkg+".") }
