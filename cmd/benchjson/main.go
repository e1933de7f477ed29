// Command benchjson turns `go test -bench` output into a stable JSON
// record.
//
// The repository's perf trajectory is kept in BENCH_*.json files
// committed at the repo root (see `make bench`): each file is the
// parsed output of one benchmark suite, so any later change can be
// diffed (or benchstat'ed — the `raw` field preserves the original
// benchmark lines) against the configuration that produced it. The
// parsing lives in internal/benchfmt; cmd/benchdiff compares and gates
// two recordings.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... > out.txt
//	benchjson -o BENCH_lookup.json < out.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"anurand/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

// run is main without the process exit, so tests can drive the CLI.
func run(args []string, stdin io.Reader, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write parsed JSON to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cur, err := benchfmt.Parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found on stdin")
		return 2
	}
	if err := benchfmt.WriteFile(cur, *out); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 2
	}
	return 0
}
