package workload

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func validTrace() *Trace {
	return &Trace{
		Label:    "test",
		Duration: 100,
		FileSets: []FileSet{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}},
		Requests: []Request{
			{Time: 1, FileSet: 0, Demand: 0.5},
			{Time: 2, FileSet: 1, Demand: 1.5},
			{Time: 2, FileSet: 1, Demand: 0.25},
			{Time: 99, FileSet: 0, Demand: 1},
		},
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Trace){
		"zero duration":      func(tr *Trace) { tr.Duration = 0 },
		"NaN duration":       func(tr *Trace) { tr.Duration = math.NaN() },
		"no file sets":       func(tr *Trace) { tr.FileSets = nil },
		"empty name":         func(tr *Trace) { tr.FileSets[0].Name = "" },
		"duplicate name":     func(tr *Trace) { tr.FileSets[1].Name = "a" },
		"negative weight":    func(tr *Trace) { tr.FileSets[0].Weight = -1 },
		"unsorted requests":  func(tr *Trace) { tr.Requests[0].Time = 50 },
		"time past end":      func(tr *Trace) { tr.Requests[3].Time = 101 },
		"bad file set index": func(tr *Trace) { tr.Requests[0].FileSet = 9 },
		"negative index":     func(tr *Trace) { tr.Requests[0].FileSet = -1 },
		"zero demand":        func(tr *Trace) { tr.Requests[0].Demand = 0 },
		"inf demand":         func(tr *Trace) { tr.Requests[0].Demand = math.Inf(1) },
	}
	for name, corrupt := range cases {
		tr := validTrace()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate accepted trace with %s", name)
		}
	}
}

func TestStats(t *testing.T) {
	tr := validTrace()
	s := tr.Stats()
	if s.Requests != 4 || s.FileSets != 2 {
		t.Fatalf("Stats counts = %d/%d, want 4/2", s.Requests, s.FileSets)
	}
	if s.TotalDemand != 3.25 {
		t.Errorf("TotalDemand = %g, want 3.25", s.TotalDemand)
	}
	if s.PerFileSet[0] != 2 || s.PerFileSet[1] != 2 {
		t.Errorf("PerFileSet = %v, want [2 2]", s.PerFileSet)
	}
	if math.Abs(s.OfferedLoad-0.0325) > 1e-12 {
		t.Errorf("OfferedLoad = %g, want 0.0325", s.OfferedLoad)
	}
	if math.Abs(s.MeanRate-0.04) > 1e-12 {
		t.Errorf("MeanRate = %g, want 0.04", s.MeanRate)
	}
}

func TestOfferedLoads(t *testing.T) {
	tr := validTrace()
	loads := tr.OfferedLoads()
	if math.Abs(loads[0]-1.5/100) > 1e-12 {
		t.Errorf("loads[0] = %g, want 0.015", loads[0])
	}
	if math.Abs(loads[1]-1.75/100) > 1e-12 {
		t.Errorf("loads[1] = %g, want 0.0175", loads[1])
	}
}

func TestWorkIsMemoizedAndMatchesStats(t *testing.T) {
	tr := validTrace()
	// Concurrent first calls (parallel experiment cells share a trace)
	// must all get the one memoized value.
	got := make([]*Work, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tr.Work()
		}()
	}
	wg.Wait()
	w := tr.Work()
	for _, g := range got {
		if g != w {
			t.Fatal("Work not memoized")
		}
	}
	s := tr.Stats()
	if w.Total != s.TotalDemand {
		t.Errorf("Total = %g, Stats.TotalDemand = %g", w.Total, s.TotalDemand)
	}
	for i, d := range s.FileSetWork {
		if w.PerFileSet[i] != d || w.Loads[i] != d/tr.Duration {
			t.Errorf("file set %d: work %g load %g, Stats %g", i, w.PerFileSet[i], w.Loads[i], d)
		}
	}
	loads := tr.OfferedLoads()
	loads[0] = -1
	if w.Loads[0] == -1 {
		t.Fatal("OfferedLoads shares the memoized slice")
	}
}

func TestScaleDemand(t *testing.T) {
	tr := validTrace()
	tr.ScaleDemand(2)
	if tr.Requests[0].Demand != 1.0 {
		t.Fatalf("demand after scale = %g, want 1.0", tr.Requests[0].Demand)
	}
	if got := tr.Stats().TotalDemand; got != 6.5 {
		t.Fatalf("TotalDemand after scale = %g, want 6.5", got)
	}
}

func TestWindowCounts(t *testing.T) {
	tr := validTrace()
	counts := tr.WindowCounts(10)
	if len(counts) != 10 {
		t.Fatalf("got %d windows, want 10", len(counts))
	}
	if counts[0] != 3 || counts[9] != 1 {
		t.Fatalf("window counts %v, want 3 in first and 1 in last", counts)
	}
	if tr.WindowCounts(0) != nil {
		t.Fatal("WindowCounts(0) did not return nil")
	}
}

func TestSortRequestsStableTieBreak(t *testing.T) {
	reqs := []Request{
		{Time: 5, FileSet: 2, Demand: 1},
		{Time: 5, FileSet: 0, Demand: 1},
		{Time: 1, FileSet: 1, Demand: 1},
	}
	sortRequests(reqs)
	if !sort.SliceIsSorted(reqs, func(i, j int) bool { return reqs[i].Time < reqs[j].Time }) &&
		reqs[0].Time != 1 {
		t.Fatalf("requests not sorted: %+v", reqs)
	}
	if reqs[1].FileSet != 0 || reqs[2].FileSet != 2 {
		t.Fatalf("tie not broken by file set: %+v", reqs)
	}
}
