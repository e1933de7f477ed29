package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer, or between two events it observed at layer boundaries.
// Times are ns since the run's clock base. Spans of one round, failover
// cycle or sweep share a trace id; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span log of one traced window; metrics
// never depend on the log, only the JSONL file does.
const maxSpans = 500_000

// spanLog keeps spans in memory until the run ends. It is not safe for
// concurrent use: every workload builds its spans on one goroutine.
type spanLog struct {
	spans   []span
	dropped int
}

// add records a span and returns its id (0 when the log is full, which
// makes later children roots rather than dangling references).
func (l *spanLog) add(name string, trace, parent uint64, start, end int64) uint64 {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[string]int64 {
	type interval struct{ start, end int64 }
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			start, end := max(k.start, reach), min(k.end, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes lists self time per span name, largest first.
func printSelfTimes(w io.Writer, workload string, l *spanLog) {
	self := selfTimes(l.spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# %s: self time per span (%d spans, %d dropped)\n", workload, len(l.spans), l.dropped)
	for _, name := range names {
		fmt.Fprintf(w, "#   %-28s %12.3f ms\n", name, float64(self[name])/1e6)
	}
}
