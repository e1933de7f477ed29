package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"anurand/internal/benchfmt"
)

// record runs the CLI once in record mode and returns the output path.
func record(t *testing.T, benchOutput string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	var stderr bytes.Buffer
	if code := run([]string{"-o", path}, strings.NewReader(benchOutput), &stderr); code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr.String())
	}
	return path
}

func TestRecordWritesParseableJSON(t *testing.T) {
	path := record(t, "pkg: p\nBenchmarkX 100 42 ns/op 0 allocs/op\n")
	f, err := benchfmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 1 || f.Benchmarks[0].Metrics["ns/op"] != 42 {
		t.Fatalf("recorded file = %+v", f)
	}
}

func TestEmptyInputFails(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, strings.NewReader("no benchmarks here\n"), &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}
