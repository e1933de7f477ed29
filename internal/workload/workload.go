// Package workload models the metadata request streams that drive the
// cluster simulation: file sets, request traces, the paper's synthetic
// Pareto workload (Section 5.1), and a DFSTrace-like synthetic trace
// that substitutes for the unavailable CMU DFSTrace data set (Figure 4).
//
// A workload is materialized as a Trace: a time-ordered list of requests
// against named file sets. Traces are deterministic functions of their
// generator configuration and seed, and can be serialized to a compact
// binary format for replay by cmd/tracegen and the benchmarks.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Request is one metadata operation against a file set.
type Request struct {
	// Time is the arrival instant in seconds from the start of the
	// trace.
	Time float64
	// FileSet indexes Trace.FileSets.
	FileSet int32
	// Demand is the service requirement in unit-speed seconds: a server
	// with speed s serves the request in Demand/s seconds.
	Demand float64
}

// FileSet is the indivisible unit of workload assignment and movement —
// a subtree of the global namespace in a shared-disk file system
// cluster.
type FileSet struct {
	// Name is the unique name hashed for placement (a pathname or
	// content fingerprint in a real cluster).
	Name string
	// Weight is the file set's relative offered load (the paper's X·c).
	Weight float64
}

// Trace is a time-ordered request stream over a fixed set of file sets.
type Trace struct {
	// Label identifies the generator ("synthetic", "dfslike", ...).
	Label string
	// Duration is the trace length in seconds.
	Duration float64
	// FileSets lists the file sets requests refer to.
	FileSets []FileSet
	// Requests is sorted by ascending Time.
	Requests []Request

	// keys memoizes the per-file-set placement digests (see Keys).
	keysOnce sync.Once
	keys     *KeySet
	// work memoizes the per-file-set demand sums (see Work).
	workOnce sync.Once
	work     *Work
}

// Validate checks structural sanity: positive duration, non-empty file
// sets with unique names, requests sorted in time, indices in range, and
// positive finite demands.
func (t *Trace) Validate() error {
	if t.Duration <= 0 || math.IsNaN(t.Duration) || math.IsInf(t.Duration, 0) {
		return fmt.Errorf("workload: invalid duration %g", t.Duration)
	}
	if len(t.FileSets) == 0 {
		return fmt.Errorf("workload: trace has no file sets")
	}
	names := make(map[string]bool, len(t.FileSets))
	for i, fs := range t.FileSets {
		if fs.Name == "" {
			return fmt.Errorf("workload: file set %d has empty name", i)
		}
		if names[fs.Name] {
			return fmt.Errorf("workload: duplicate file set name %q", fs.Name)
		}
		names[fs.Name] = true
		if fs.Weight < 0 || math.IsNaN(fs.Weight) || math.IsInf(fs.Weight, 0) {
			return fmt.Errorf("workload: file set %q has invalid weight %g", fs.Name, fs.Weight)
		}
	}
	var prev float64
	for i, r := range t.Requests {
		if r.Time < prev {
			return fmt.Errorf("workload: request %d out of order (%g < %g)", i, r.Time, prev)
		}
		prev = r.Time
		if r.Time < 0 || r.Time > t.Duration {
			return fmt.Errorf("workload: request %d at %g outside [0, %g]", i, r.Time, t.Duration)
		}
		if int(r.FileSet) < 0 || int(r.FileSet) >= len(t.FileSets) {
			return fmt.Errorf("workload: request %d references file set %d of %d", i, r.FileSet, len(t.FileSets))
		}
		if r.Demand <= 0 || math.IsNaN(r.Demand) || math.IsInf(r.Demand, 0) {
			return fmt.Errorf("workload: request %d has invalid demand %g", i, r.Demand)
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	Requests     int
	FileSets     int
	Duration     float64
	MeanRate     float64   // requests per second
	TotalDemand  float64   // unit-speed seconds of work
	OfferedLoad  float64   // TotalDemand / Duration (unit-speed servers)
	PerFileSet   []int     // request counts
	FileSetWork  []float64 // summed demand per file set
	MaxShare     float64   // largest file set's fraction of total demand
	MeanInterArr float64
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	s := Stats{
		Requests:    len(t.Requests),
		FileSets:    len(t.FileSets),
		Duration:    t.Duration,
		PerFileSet:  make([]int, len(t.FileSets)),
		FileSetWork: make([]float64, len(t.FileSets)),
	}
	for _, r := range t.Requests {
		s.PerFileSet[r.FileSet]++
		s.FileSetWork[r.FileSet] += r.Demand
		s.TotalDemand += r.Demand
	}
	if t.Duration > 0 {
		s.MeanRate = float64(len(t.Requests)) / t.Duration
		s.OfferedLoad = s.TotalDemand / t.Duration
	}
	for _, w := range s.FileSetWork {
		if share := w / s.TotalDemand; share > s.MaxShare {
			s.MaxShare = share
		}
	}
	if len(t.Requests) > 1 {
		s.MeanInterArr = t.Duration / float64(len(t.Requests))
	}
	return s
}

// Work is a trace's demand summed per file set, in request order. It is
// shared by every run over the trace: callers must treat it as
// read-only.
type Work struct {
	// PerFileSet is the total demand of each file set in unit-speed
	// seconds.
	PerFileSet []float64
	// Total is the demand of the whole trace.
	Total float64
	// Loads is PerFileSet divided by the trace's duration: each file
	// set's offered load in unit-speed seconds of work per second.
	Loads []float64
}

// Work returns the trace's memoized demand sums, computing them on first
// use. The trace must be valid (see Validate) and, like Keys, must not
// change afterwards. Concurrent first calls are safe.
func (t *Trace) Work() *Work {
	t.workOnce.Do(func() {
		w := &Work{PerFileSet: make([]float64, len(t.FileSets))}
		for _, r := range t.Requests {
			w.PerFileSet[r.FileSet] += r.Demand
			w.Total += r.Demand
		}
		w.Loads = make([]float64, len(w.PerFileSet))
		for i, d := range w.PerFileSet {
			w.Loads[i] = d / t.Duration
		}
		t.work = w
	})
	return t.work
}

// OfferedLoads returns each file set's offered load in unit-speed
// seconds of work per second — the ground truth the dynamic-prescient
// policy is entitled to (it has "perfect knowledge of server
// capabilities and workload properties"). The slice is the caller's.
func (t *Trace) OfferedLoads() []float64 {
	return slices.Clone(t.Work().Loads)
}

// ScaleDemand multiplies every request demand by c, the paper's scaling
// factor "tuned to avoid overload of the whole system". It must run
// before the first call to Work, which memoizes the demands.
func (t *Trace) ScaleDemand(c float64) {
	for i := range t.Requests {
		t.Requests[i].Demand *= c
	}
}

// WindowCounts returns per-window request counts with the given window
// size, a quick burstiness profile used in tests and cmd/tracegen.
func (t *Trace) WindowCounts(window float64) []int {
	if window <= 0 {
		return nil
	}
	n := int(math.Ceil(t.Duration / window))
	if n == 0 {
		n = 1
	}
	counts := make([]int, n)
	for _, r := range t.Requests {
		w := int(r.Time / window)
		if w >= n {
			w = n - 1
		}
		counts[w]++
	}
	return counts
}

// sortRequests sorts the request slice by time, with file set index as a
// deterministic tie-breaker.
func sortRequests(reqs []Request) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Time != reqs[j].Time {
			return reqs[i].Time < reqs[j].Time
		}
		return reqs[i].FileSet < reqs[j].FileSet
	})
}
