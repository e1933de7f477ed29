package main

import (
	"fmt"
	"runtime"
	"time"

	"anurand/internal/clustersim"
	"anurand/internal/experiment"
	"anurand/internal/placement"
	"anurand/internal/policy"
	"anurand/internal/workload"
)

// fig5Digests are the determinism digests of the quick Figure 5 cell per
// policy, copied from fig5Digests in
// internal/experiment/determinism_test.go. They hold for seed 1 on
// amd64; other architectures may round floats differently.
var fig5Digests = map[experiment.PolicyName]string{
	"simple":          "9e86a940d286609e",
	"anu":             "5afe09b52a3aa7f3",
	"prescient":       "d2092b9c5dadde10",
	"vp":              "2d03a691768e5268",
	"chord":           "3238b63a7c1e38cd",
	"chord-bounded":   "89ff43d064eef4d0",
	"power-of-d":      "3195b7868879142e",
	"rendezvous":      "183a116250208076",
	"weighted-static": "fa66453f5c8ec073",
}

// sweep runs the figure pipeline's cells one after another: each
// operation is one BuildPolicy plus one clustersim.Run of a policy over
// the quick Figure 5 trace.
type sweep struct {
	suite   *experiment.Suite
	trace   *workload.Trace
	names   []experiment.PolicyName
	vp      int
	scratch *clustersim.Scratch
	digests map[experiment.PolicyName]string // the first sweep's
	res     *result
}

// cellRun is one measured cell.
type cellRun struct {
	placer     policy.Placer
	result     *clustersim.Result
	build, run time.Duration
}

func newSweep(seed uint64, res *result) (*sweep, time.Duration, error) {
	cfg := experiment.DefaultConfig()
	cfg.Seed, cfg.Quick, cfg.Workers = seed, true, 1
	sw := &sweep{
		suite:   experiment.NewSuite(cfg),
		names:   experiment.Policies(),
		vp:      cfg.DefaultVP,
		scratch: &clustersim.Scratch{},
		digests: make(map[experiment.PolicyName]string),
		res:     res,
	}
	start := time.Now()
	trace, err := sw.suite.Synthetic()
	if err != nil {
		return nil, 0, err
	}
	sw.trace = trace
	return sw, time.Since(start), nil
}

// cell builds and simulates one policy; a non-nil tracer wraps the
// placer.
func (sw *sweep) cell(name experiment.PolicyName, tr *placerTrace) (cellRun, error) {
	var c cellRun
	t0 := time.Now()
	placer, err := sw.suite.BuildPolicy(name, sw.trace, sw.vp)
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	c.placer = placer
	var p policy.Placer = placer
	var tp *tracedPlacer
	if tr != nil {
		tr.log.add("build_policy", tr.sweep, tr.root, tr.at(t0), tr.at(t1))
		tp = tr.wrap(name, placer)
		p = tp
	}
	cfg := clustersim.DefaultConfig(sw.trace, p)
	cfg.Scratch = sw.scratch
	if c.result, err = clustersim.Run(cfg); err != nil {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	c.build, c.run = t1.Sub(t0), time.Since(t1)
	if tp != nil && tp.run != 0 {
		tr.log.spans[tp.run-1].End = tr.now()
	}
	return c, nil
}

// warmUp runs the first sweep, whose digests every later sweep must
// reproduce, and checks them against the pinned ones on seed 1.
func (sw *sweep) warmUp(seed uint64) error {
	for _, name := range sw.names {
		c, err := sw.cell(name, nil)
		if err != nil {
			return err
		}
		sw.digests[name] = c.result.DeterminismDigest()
	}
	if seed != 1 || runtime.GOARCH != "amd64" {
		return nil
	}
	for _, name := range sw.names {
		want, ok := fig5Digests[name]
		sw.res.check(ok && sw.digests[name] == want, "%s: digest %s, pinned %q", name, sw.digests[name], want)
	}
	return nil
}

// runSweep is the paper-reproduction path: every registered policy over
// the quick Figure 5 trace, repeated until the window closes.
func runSweep(o opts) (*result, error) {
	res := newResult("sim-sweep")
	var setups, generate []float64
	var sw *sweep
	for i := 0; i < o.setupsOr(15); i++ {
		runtime.GC() // every set-up starts from a collected heap
		start := time.Now()
		s, gen, err := newSweep(o.seed, res)
		if err != nil {
			return nil, err
		}
		if err := s.warmUp(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		generate = append(generate, ms(gen))
		sw = s
	}
	res.set("setup_s", median(setups), "s", len(setups))

	w, err := sw.window(o.window, nil)
	if err != nil {
		return nil, err
	}
	res.setOps(w.samples, w.before, w.after)
	if !o.trace {
		return res, nil
	}
	res.set("workload.generate_ms", median(generate), "ms", len(generate))
	w.setLayers(res)

	res.spans = &spanLog{}
	tr := &placerTrace{
		log:     res.spans,
		base:    time.Now(),
		retunes: make(map[experiment.PolicyName][]float64),
		reports: make(map[experiment.PolicyName][]placement.Report),
	}
	tw, err := sw.window(o.window, tr)
	if err != nil {
		return nil, err
	}
	overhead(res, w.samples, tw.samples)
	for _, name := range sw.names {
		res.set("policy.retune_us_p50."+string(name), quantile(tr.retunes[name], 0.5), "us", len(tr.retunes[name]))
	}
	res.set("policy.place_calls_per_sweep", float64(tr.places)*float64(len(sw.names))/float64(len(tw.samples)), "count", len(tw.samples))

	allocs, _ := allocsPer(1, func() {
		for _, name := range sw.names {
			if _, err := sw.cell(name, nil); err != nil {
				res.check(false, "alloc probe: %v", err)
			}
		}
	})
	res.set("clustersim.allocs_per_sweep", allocs, "count", 1)

	// The placement probes run on the anu cell's final map and reports.
	anuPlacer, ok := tw.last["anu"].(*policy.ANU)
	if !ok {
		return nil, fmt.Errorf("anu cell built %T, want *policy.ANU", tw.last["anu"])
	}
	s, err := placement.Decode(anuPlacer.Map().Encode(), decodeOptions())
	if err != nil {
		return nil, err
	}
	probeLayers(res, s, tr.reports["anu"], makeKeys(o.seed))
	return res, nil
}

// sweepWindow is what one measured window of sim-sweep saw.
type sweepWindow struct {
	samples       []float64 // ms per cell: BuildPolicy + Run
	before, after usage
	build, run    map[experiment.PolicyName][]float64 // us, ms
	events        map[experiment.PolicyName]uint64
	last          map[experiment.PolicyName]policy.Placer
}

// window runs cells in policy order until d has passed, checking every
// cell's digest against the first sweep's.
func (sw *sweep) window(d time.Duration, tr *placerTrace) (sweepWindow, error) {
	w := sweepWindow{
		build:  make(map[experiment.PolicyName][]float64),
		run:    make(map[experiment.PolicyName][]float64),
		events: make(map[experiment.PolicyName]uint64),
		last:   make(map[experiment.PolicyName]policy.Placer),
	}
	w.before = readUsage()
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		name := sw.names[i%len(sw.names)]
		if tr != nil && i%len(sw.names) == 0 {
			tr.beginSweep(uint64(i/len(sw.names) + 1))
		}
		c, err := sw.cell(name, tr)
		if err != nil {
			return w, err
		}
		w.samples = append(w.samples, ms(c.build+c.run))
		w.build[name] = append(w.build[name], float64(c.build)/1e3)
		w.run[name] = append(w.run[name], ms(c.run))
		w.events[name] = c.result.EventsRun
		w.last[name] = c.placer
		digest := c.result.DeterminismDigest()
		sw.res.check(digest == sw.digests[name], "%s: digest %s differs from the first sweep's %s", name, digest, sw.digests[name])
		if !time.Now().Before(deadline) {
			break
		}
	}
	w.after = readUsage()
	if tr != nil {
		tr.endSweep()
	}
	return w, nil
}

// setLayers records the per-policy costs of an untraced window.
func (w *sweepWindow) setLayers(res *result) {
	var events uint64
	var runSeconds float64
	for name, runs := range w.run {
		res.set("experiment.build_policy_us."+string(name), mean(w.build[name]), "us", len(runs))
		res.set("clustersim.run_ms."+string(name), mean(runs), "ms", len(runs))
		res.set("clustersim.events_per_run."+string(name), float64(w.events[name]), "count", 1)
		events += w.events[name] * uint64(len(runs))
		runSeconds += mean(runs) * float64(len(runs)) / 1e3
	}
	if runSeconds > 0 {
		res.set("sim.mevents_per_s", float64(events)/runSeconds/1e6, "Mevents/s", len(w.samples))
	}
}

// placerTrace records spans around the policy layer: one root span per
// sweep, build_policy and clustersim.run per cell, and policy.retune
// inside each run. Place calls are only counted; there are thousands per
// run at a few ns each.
type placerTrace struct {
	log     *spanLog
	base    time.Time
	sweep   uint64
	root    uint64
	retunes map[experiment.PolicyName][]float64 // us
	places  int
	reports map[experiment.PolicyName][]placement.Report
}

func (t *placerTrace) now() int64 { return int64(time.Since(t.base)) }

func (t *placerTrace) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *placerTrace) beginSweep(id uint64) {
	t.endSweep()
	t.sweep = id
	now := t.now()
	t.root = t.log.add("sweep", id, 0, now, now)
}

func (t *placerTrace) endSweep() {
	if t.root != 0 {
		t.log.spans[t.root-1].End = t.now()
		t.root = 0
	}
}

// wrap returns the placer the simulator runs: the built placer behind a
// span-recording wrapper whose clustersim.run span opens now.
func (t *placerTrace) wrap(name experiment.PolicyName, p policy.Placer) *tracedPlacer {
	now := t.now()
	return &tracedPlacer{Placer: p, t: t, name: name, run: t.log.add("clustersim.run", t.sweep, t.root, now, now)}
}

type tracedPlacer struct {
	policy.Placer
	t    *placerTrace
	name experiment.PolicyName
	run  uint64 // span id of the enclosing clustersim.run
}

func (p *tracedPlacer) Place(fs int) policy.ServerID {
	p.t.places++
	return p.Placer.Place(fs)
}

func (p *tracedPlacer) Retune(env *policy.Env) error {
	start := p.t.now()
	err := p.Placer.Retune(env)
	end := p.t.now()
	p.t.log.add("policy.retune", p.t.sweep, p.run, start, end)
	p.t.retunes[p.name] = append(p.t.retunes[p.name], float64(end-start)/1e3)
	p.t.reports[p.name] = append(p.t.reports[p.name][:0], env.Reports...)
	return err
}
