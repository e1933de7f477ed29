package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: anurand
cpu: AMD EPYC 7B13
BenchmarkBalancerLookup              	31680140	        36.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkBalancerLookupParallel      	32079256	        37.98 ns/op	       0 B/op	       0 allocs/op
BenchmarkBalancerLookupBatch         	   35564	     32190 ns/op	        31.44 ns/key	       0 B/op	       0 allocs/op
PASS
ok  	anurand	5.2s
pkg: anurand/internal/hashx
BenchmarkHash-2   	50000000	        21.50 ns/op
PASS
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || f.CPU != "AMD EPYC 7B13" {
		t.Errorf("context = %q/%q/%q", f.Goos, f.Goarch, f.CPU)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(f.Benchmarks))
	}
	// Sorted by (pkg, name): the three anurand benchmarks first.
	b := f.Benchmarks[0]
	if b.Pkg != "anurand" || b.Name != "BenchmarkBalancerLookup" {
		t.Errorf("first benchmark = %s", b.Key())
	}
	if b.N != 31680140 {
		t.Errorf("N = %d", b.N)
	}
	if got := b.Metrics["ns/op"]; got != 36.00 {
		t.Errorf("ns/op = %v", got)
	}
	if got := b.Metrics["allocs/op"]; got != 0 {
		t.Errorf("allocs/op = %v", got)
	}
	batch := f.Benchmarks[1]
	if batch.Name != "BenchmarkBalancerLookupBatch" {
		t.Fatalf("second benchmark = %s", batch.Name)
	}
	if got := batch.Metrics["ns/key"]; got != 31.44 {
		t.Errorf("custom metric ns/key = %v", got)
	}
	// Multi-package streams: the pkg context line re-annotates.
	last := f.Benchmarks[3]
	if last.Pkg != "anurand/internal/hashx" || last.Name != "BenchmarkHash-2" {
		t.Errorf("last benchmark = %s", last.Key())
	}
	if len(f.Raw) != 4 {
		t.Errorf("raw lines = %d, want 4", len(f.Raw))
	}
}

func TestParseSkipsMalformedLines(t *testing.T) {
	in := "BenchmarkBroken notanumber 12 ns/op\nBenchmarkOK 100 12 ns/op\nBenchmarkShort 5\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
}

func TestParseCustomReportMetricUnits(t *testing.T) {
	// b.ReportMetric emits arbitrary units, including ones with odd
	// characters; every (value, unit) pair on the line must survive.
	in := "pkg: p\nBenchmarkX 10 100 ns/op 3.5 rounds/op 0.125 moved-frac 7 msgs/round\n"
	f, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v", f.Benchmarks)
	}
	m := f.Benchmarks[0].Metrics
	for unit, want := range map[string]float64{
		"ns/op": 100, "rounds/op": 3.5, "moved-frac": 0.125, "msgs/round": 7,
	} {
		if m[unit] != want {
			t.Errorf("%s = %v, want %v", unit, m[unit], want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(f, path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Benchmarks) != len(f.Benchmarks) || g.CPU != f.CPU {
		t.Fatalf("round trip mismatch: %+v", g)
	}
	if g.Benchmarks[1].Metrics["ns/key"] != 31.44 {
		t.Fatalf("custom metric lost in round trip")
	}
}

func mkFile(metric string, vals map[string]float64) *File {
	f := &File{}
	for name, v := range vals {
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Pkg: "p", Name: name, N: 1,
			Metrics: map[string]float64{metric: v},
		})
	}
	return f
}

func TestCountLike(t *testing.T) {
	for metric, want := range map[string]bool{
		"allocs/op": true, "B/op": true, "ns/op": false, "ns/key": false, "speedup": false,
	} {
		if CountLike(metric) != want {
			t.Errorf("CountLike(%q) = %v, want %v", metric, !want, want)
		}
	}
}
