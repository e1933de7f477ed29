// Package benchfmt parses `go test -bench` output into a stable JSON
// record and diffs whole benchmark files across every shared metric
// with noise-aware thresholds.
//
// It is the engine behind cmd/benchjson (record) and cmd/benchdiff
// (report and gate): the repository's perf trajectory is kept in
// BENCH_*.json files committed at the repo root, and both commands
// read and write this package's File format.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Pkg is the Go package the benchmark ran in.
	Pkg string `json:"pkg"`
	// Name is the full benchmark name including the -GOMAXPROCS
	// suffix, e.g. "BenchmarkBalancerLookupParallel-16".
	Name string `json:"name"`
	// N is the iteration count the reported means were measured over.
	N int64 `json:"n"`
	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op", plus
	// any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics"`
}

// Key identifies a benchmark across files: package-qualified name.
func (b Benchmark) Key() string { return b.Pkg + "." + b.Name }

// File is the JSON document benchjson/benchdiff read and write.
type File struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw preserves the original benchmark result lines, so benchstat
	// can consume a recorded file via `jq -r '.raw[]'`.
	Raw []string `json:"raw"`
}

// Env formats the file's recording context for report headers.
func (f *File) Env() string {
	parts := make([]string, 0, 3)
	if f.Goos != "" || f.Goarch != "" {
		parts = append(parts, f.Goos+"/"+f.Goarch)
	}
	if f.CPU != "" {
		parts = append(parts, f.CPU)
	}
	parts = append(parts, fmt.Sprintf("%d benchmarks", len(f.Benchmarks)))
	return strings.Join(parts, ", ")
}

// Parse reads `go test -bench` output. Context lines (goos, goarch,
// cpu, pkg) annotate the benchmarks that follow them; multiple
// packages in one stream are handled.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			b.Pkg = pkg
			f.Benchmarks = append(f.Benchmarks, b)
			f.Raw = append(f.Raw, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(f.Benchmarks, func(i, j int) bool {
		a, b := f.Benchmarks[i], f.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	return f, nil
}

// parseLine parses one benchmark result line: a name, an iteration
// count, then (value, unit) pairs.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], N: n, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// ReadFile loads a recorded BENCH_*.json file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &f, nil
}

// Write marshals f as indented JSON to w.
func Write(f *File, w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile records f at path ("" or "-" means stdout).
func WriteFile(f *File, path string) error {
	if path == "" || path == "-" {
		return Write(f, os.Stdout)
	}
	var buf strings.Builder
	if err := Write(f, &buf); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// CountLike reports whether a metric is a discrete resource count —
// "allocs/op", "B/op" — rather than a timing. Count metrics are exact
// (the runtime counts them, the clock does not jitter them), so a zero
// baseline is an absolute guarantee: any increase from 0 is a real
// regression, where for a timing metric a zero baseline just means the
// value was below the clock's resolution.
func CountLike(metric string) bool {
	switch metric {
	case "allocs/op", "B/op":
		return true
	}
	return false
}
