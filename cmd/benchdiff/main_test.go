package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anurand/internal/benchfmt"
)

func writeBench(t *testing.T, dir, name string, benchmarks []benchfmt.Benchmark) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f := &benchfmt.File{Goos: "linux", Goarch: "amd64", Benchmarks: benchmarks}
	if err := benchfmt.WriteFile(f, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeMetric records one file of benchmarks in package p that each
// carry a single metric.
func writeMetric(t *testing.T, name, metric string, vals map[string]float64) string {
	t.Helper()
	var bs []benchfmt.Benchmark
	for bench, v := range vals {
		bs = append(bs, benchfmt.Benchmark{Pkg: "p", Name: bench, N: 1, Metrics: map[string]float64{metric: v}})
	}
	return writeBench(t, t.TempDir(), name, bs)
}

// writeOutput records `go test -bench` output the way cmd/benchjson
// does.
func writeOutput(t *testing.T, name, benchOutput string) string {
	t.Helper()
	f, err := benchfmt.Parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := benchfmt.WriteFile(f, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs the CLI with the report discarded and returns the exit
// code and stderr.
func gate(args ...string) (int, string) {
	var stderr bytes.Buffer
	code := run(args, io.Discard, &stderr)
	return code, stderr.String()
}

func fixturePaths(t *testing.T) (base, cur string) {
	dir := t.TempDir()
	base = writeBench(t, dir, "base.json", []benchfmt.Benchmark{
		{Pkg: "p", Name: "BenchmarkA", N: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
		{Pkg: "p", Name: "BenchmarkB", N: 1, Metrics: map[string]float64{"ns/op": 50}},
	})
	cur = writeBench(t, dir, "cur.json", []benchfmt.Benchmark{
		{Pkg: "p", Name: "BenchmarkA", N: 1, Metrics: map[string]float64{"ns/op": 105, "allocs/op": 4}},
		{Pkg: "p", Name: "BenchmarkB", N: 1, Metrics: map[string]float64{"ns/op": 49}},
	})
	return base, cur
}

func TestReportRendersAndFlagsZeroBaseline(t *testing.T) {
	base, cur := fixturePaths(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{base, cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d (ns/op gate): %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"## Benchmark diff", "REGRESSION (zero baseline)", "p.BenchmarkA", "allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestMetricFlagSelectsTheGate: every shared metric is reported, but
// only -metric decides the exit status.
func TestMetricFlagSelectsTheGate(t *testing.T) {
	base, cur := fixturePaths(t)
	if code, stderr := gate(base, cur); code != 0 {
		t.Fatalf("ns/op gate exit = %d, want 0 (the alloc regression is reported, not gated); stderr: %s", code, stderr)
	}
	if code, stderr := gate("-metric", "allocs/op", base, cur); code != 1 {
		t.Fatalf("allocs/op gate exit = %d, want 1; stderr: %s", code, stderr)
	}
	if code, stderr := gate("-metric", "allocs/op", base, base); code != 0 {
		t.Fatalf("self-diff exit = %d: %s", code, stderr)
	}
}

func TestReportFileOutput(t *testing.T) {
	base, cur := fixturePaths(t)
	out := filepath.Join(t.TempDir(), "report.md")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", out, base, cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "## Benchmark diff") {
		t.Fatalf("report file content:\n%s", data)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty with -o: %s", stdout.String())
	}
}

// TestNsOpToleranceBoundary pins the 30% ns/op tolerance from both
// sides, and that the gated metric has no noise floor: a +40% rise on a
// 1 ns baseline fails even though the report's floor would call it
// jitter.
func TestNsOpToleranceBoundary(t *testing.T) {
	base := writeMetric(t, "b.json", "ns/op", map[string]float64{"BenchmarkA": 100})
	for _, tc := range []struct {
		cur  float64
		want int
	}{
		{cur: 129, want: 0},
		{cur: 131, want: 1},
	} {
		cur := writeMetric(t, "c.json", "ns/op", map[string]float64{"BenchmarkA": tc.cur})
		if code, stderr := gate(base, cur); code != tc.want {
			t.Errorf("100 -> %v ns/op exit = %d, want %d; stderr: %s", tc.cur, code, tc.want, stderr)
		}
	}
	base = writeMetric(t, "b.json", "ns/op", map[string]float64{"BenchmarkJitter": 1.0})
	cur := writeMetric(t, "c.json", "ns/op", map[string]float64{"BenchmarkJitter": 1.4})
	if code, stderr := gate(base, cur); code != 1 {
		t.Errorf("1.0 -> 1.4 ns/op exit = %d, want 1; stderr: %s", code, stderr)
	}
}

func TestGate(t *testing.T) {
	base := writeMetric(t, "b.json", "ns/op", map[string]float64{"A": 100, "B": 50, "OnlyBase": 10})
	cur := writeMetric(t, "c.json", "ns/op", map[string]float64{"A": 120, "B": 80, "OnlyCur": 5})

	// A is +20% (within 30%), B is +60% (regression). OnlyBase/OnlyCur
	// appear in one file each and are skipped.
	code, stderr := gate(base, cur)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "compared 2 benchmarks") {
		t.Errorf("want 2 benchmarks compared; stderr: %s", stderr)
	}
	if !strings.Contains(stderr, "p.B ns/op") || strings.Contains(stderr, "p.A ns/op") {
		t.Errorf("want one regression, for p.B; stderr: %s", stderr)
	}

	// Improvements never fail the gate.
	if code, stderr := gate(cur, base); code != 0 {
		t.Errorf("improvements flagged as regressions: exit %d; stderr: %s", code, stderr)
	}
}

// TestGateZeroBaselineCountRegression is the regression test for the
// gate's original blind spot: a benchmark whose baseline was
// 0 allocs/op could regress to any allocation count and still pass,
// because relative comparison requires old > 0.
func TestGateZeroBaselineCountRegression(t *testing.T) {
	base := writeMetric(t, "b.json", "allocs/op", map[string]float64{"Lookup": 0})
	cur := writeMetric(t, "c.json", "allocs/op", map[string]float64{"Lookup": 3})

	code, stderr := gate("-metric", "allocs/op", base, cur)
	if code != 1 {
		t.Fatalf("0 -> 3 allocs/op exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "compared 1 benchmarks") {
		t.Errorf("want 1 benchmark compared; stderr: %s", stderr)
	}
	if !strings.Contains(stderr, "zero baseline") {
		t.Errorf("regression message does not explain the zero baseline: %s", stderr)
	}

	// Staying at zero is fine.
	if code, stderr := gate("-metric", "allocs/op", base, base); code != 0 {
		t.Errorf("0 -> 0 allocs/op exit = %d; stderr: %s", code, stderr)
	}

	// B/op gets the same protection.
	base = writeMetric(t, "b.json", "B/op", map[string]float64{"Lookup": 0})
	cur = writeMetric(t, "c.json", "B/op", map[string]float64{"Lookup": 64})
	if code, stderr := gate("-metric", "B/op", base, cur); code != 1 {
		t.Errorf("0 -> 64 B/op exit = %d, want 1; stderr: %s", code, stderr)
	}
}

// TestGateZeroBaselineTimingSkipped pins the asymmetry: a 0 ns/op
// baseline is a clock artifact, not a guarantee, so it never gates.
func TestGateZeroBaselineTimingSkipped(t *testing.T) {
	base := writeMetric(t, "b.json", "ns/op", map[string]float64{"X": 0})
	cur := writeMetric(t, "c.json", "ns/op", map[string]float64{"X": 25})
	if code, stderr := gate(base, cur); code != 0 {
		t.Errorf("zero ns/op baseline gated: exit %d; stderr: %s", code, stderr)
	}
}

func TestGateAddedRemovedBenchmarksSkipped(t *testing.T) {
	base := writeMetric(t, "b.json", "ns/op", map[string]float64{"Gone": 10, "Kept": 10})
	cur := writeMetric(t, "c.json", "ns/op", map[string]float64{"Kept": 10, "New": 99999})
	code, stderr := gate(base, cur)
	if code != 0 {
		t.Errorf("added/removed benchmarks gated: exit %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "compared 1 benchmarks") {
		t.Errorf("want only the shared benchmark compared; stderr: %s", stderr)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := writeOutput(t, "b.json", "pkg: p\nBenchmarkX 100 42 ns/op\n")
	cur := writeOutput(t, "c.json", "pkg: p\nBenchmarkX 100 99 ns/op\n")
	code, stderr := gate(base, cur)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "REGRESSION") {
		t.Errorf("stderr missing REGRESSION: %s", stderr)
	}
}

// TestGateFailsOnZeroAllocBaselineRegression is the CLI-level proof of
// the acceptance criterion: a benchmark recorded at 0 allocs/op that
// now allocates fails the gate.
func TestGateFailsOnZeroAllocBaselineRegression(t *testing.T) {
	base := writeOutput(t, "b.json", "pkg: p\nBenchmarkLookup 100 42 ns/op 0 B/op 0 allocs/op\n")
	cur := writeOutput(t, "c.json", "pkg: p\nBenchmarkLookup 100 42 ns/op 16 B/op 2 allocs/op\n")
	if code, stderr := gate("-metric", "allocs/op", base, cur); code != 1 {
		t.Fatalf("0 -> 2 allocs/op exit = %d, want 1; stderr: %s", code, stderr)
	}
	for _, rise := range []string{"1", "2"} {
		cur = writeOutput(t, "c.json", "pkg: p\nBenchmarkLookup 100 42 ns/op 0 B/op "+rise+" allocs/op\n")
		if code, stderr := gate("-metric", "allocs/op", base, cur); code != 1 {
			t.Errorf("0 -> %s allocs/op exit = %d, want 1; stderr: %s", rise, code, stderr)
		}
	}

	// The same run at 0 allocs still passes.
	cur = writeOutput(t, "c.json", "pkg: p\nBenchmarkLookup 100 45 ns/op 0 B/op 0 allocs/op\n")
	if code, stderr := gate("-metric", "allocs/op", base, cur); code != 0 {
		t.Fatalf("clean alloc gate exit = %d: %s", code, stderr)
	}
}

// TestEmptyOverlapFails: a gate that compared nothing must not pass.
// A baseline recorded at -cpu=4 names its benchmarks BenchmarkX-4, so
// a -cpu=1 run shares no names with it.
func TestEmptyOverlapFails(t *testing.T) {
	base := writeOutput(t, "b.json", "pkg: p\nBenchmarkX-4 100 42 ns/op 0 allocs/op\n")
	cur := writeOutput(t, "c.json", "pkg: p\nBenchmarkX 100 42 ns/op 0 allocs/op\n")
	code, stderr := gate("-metric", "allocs/op", base, cur)
	if code != 2 {
		t.Fatalf("disjoint names exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "compared 0 benchmarks") {
		t.Errorf("stderr does not report the empty comparison: %s", stderr)
	}

	// Shared names but no shared -metric compares nothing too.
	if code, stderr := gate("-metric", "allocs/op", cur, writeOutput(t, "n.json", "pkg: p\nBenchmarkX 100 42 ns/op\n")); code != 2 {
		t.Errorf("metric missing from one file exit = %d, want 2; stderr: %s", code, stderr)
	}
}

func TestBadUsage(t *testing.T) {
	if code, _ := gate("only-one.json"); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code, _ := gate("-tolerance", "0.1", "a.json", "b.json"); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if code, _ := gate(missing, missing); code != 2 {
		t.Fatalf("missing file exit = %d, want 2", code)
	}
}
