package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit and the count of raw
// samples behind it (1 for a single measurement, 0 when the workload does
// not exercise the layer the metric belongs to).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// result is everything one workload run reports: its metrics and the
// tally of correctness checks.
type result struct {
	workload  string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string // the first few failed checks, for diagnosis
	spans     *spanLog // nil unless traced
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]metric)}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// check counts one attempted correctness check and, when ok is false,
// one failure described by the format.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure of an operation already counted as attempted.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least q·len(xs) samples at or below it. It sorts xs in place and
// returns 0 for no samples. Exact ranks over raw samples, never buckets:
// a 10% change in a tail must show as a 10% change in the number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		slices.Sort(xs)
	}
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is a process-wide resource reading: CPU time from getrusage and
// the Go allocator's cumulative counters.
type usage struct {
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m.TotalAlloc,
		gcs:        m.NumGC,
	}
}

// setOps records the end-to-end operation metrics of one untraced
// window: latency samples of the workload's operation (ms) and the
// process CPU time spent per operation.
func (r *result) setOps(samples []float64, before, after usage) {
	n := len(samples)
	r.set("op_ms_mean", mean(samples), "ms", n)
	r.set("op_ms_p50", quantile(samples, 0.50), "ms", n)
	r.set("op_ms_p90", quantile(samples, 0.90), "ms", n)
	r.set("op_ms_p99", quantile(samples, 0.99), "ms", n)
	if n > 0 {
		r.set("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(n), "ms", n)
		r.set("go.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(n), "KB", n)
		r.set("go.gc_per_op", float64(after.gcs-before.gcs)/float64(n), "count", n)
	}
}

// overhead records how much the traced window's mean operation time
// differs from the untraced one.
func overhead(res *result, untraced, traced []float64) {
	if m := mean(untraced); m > 0 {
		res.set("trace_overhead_pct", 100*(mean(traced)/m-1), "%", len(traced))
	}
}

// allocsPer runs f reps times and returns the mean heap allocations and
// bytes allocated per call. Callers run it with the rest of the program
// quiescent, so the counts are f's own.
func allocsPer(reps int, f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(reps), float64(b.TotalAlloc-a.TotalAlloc) / float64(reps)
}

// timePer runs f reps times, timing each call, and returns the median
// call time in ns.
func timePer(reps int, f func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = float64(time.Since(t0))
	}
	return median(samples)
}
