package clustersim

import (
	"fmt"
	"sort"
	"strconv"

	"anurand/internal/anu"
	"anurand/internal/metrics"
	"anurand/internal/policy"
	"anurand/internal/sim"
)

// Run simulates the configured cluster over the whole trace and returns
// the collected results. Runs are deterministic: the same configuration
// (including the policy's construction seed) always produces the same
// result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := newRunner(&cfg)
	return r.run()
}

// Scratch is reusable simulation memory — the engine arena holding the
// event free list, job pool and calendar backing array. A caller
// running many simulations back to back (the experiment worker pool)
// passes the same Scratch to each run via Config.Scratch, so the
// steady-state memory is allocated once per worker rather than once per
// cell. A Scratch must not be shared by concurrent runs. The zero value
// is ready to use.
type Scratch struct {
	arena sim.Arena
}

// serverState is one server's live simulation state.
type serverState struct {
	id    ServerID
	idx   int32 // dense index into runner.states; j.Aux carries idx+1
	speed float64
	res   *sim.Resource
	up    bool
	gone  bool // decommissioned: excluded from policy snapshots

	// requests counts real trace requests completed here (the
	// resource's own Served() also counts injected cache-flush work).
	requests uint64

	// Interval accumulators for the next latency report.
	intervalCount uint64
	intervalSum   float64

	stats *ServerStats
}

type runner struct {
	cfg    *Config
	eng    sim.Engine
	trace  traceView
	policy policy.Placer

	// states is append-only dense server storage; byID maps a ServerID
	// to its index (-1 when absent), replacing the per-request map
	// lookup of earlier versions; order keeps the ids sorted for the
	// deterministic snapshot and fallback iteration.
	states []*serverState
	byID   []int32
	order  []ServerID

	assignment []ServerID // file set -> placed server
	cold       []int      // remaining cold-penalty requests per file set

	fsWork    []float64 // total demand per file set (move accounting)
	totalWork float64
	fsLoads   []float64 // whole-trace offered load per file set (prescient env)

	nextArrival int // cursor into Trace.Requests for the chained arrivals

	// doneFn is the one bound completion callback every request job
	// shares; the job's typed slots carry the per-request context a
	// closure used to.
	doneFn func(*sim.Job)

	// Tuning-round scratch, reused across intervals.
	envServers []policy.ServerInfo
	envReports []anu.Report
	liveBuf    []ServerID
	keepFn     func(*sim.Job) bool // DrainQueue predicate over drainFS
	drainFS    int32

	window      float64
	steadyAfter float64
	san         *san
	result      *Result
	round       int
	err         error // first policy/harness error, aborts the run
}

// traceView caches the trace fields the hot path touches.
type traceView struct {
	duration float64
	requests int
}

func newRunner(cfg *Config) *runner {
	window := cfg.ReportWindow
	if window == 0 {
		window = cfg.TuneInterval
	}
	r := &runner{
		cfg:        cfg,
		policy:     cfg.Policy,
		assignment: make([]ServerID, len(cfg.Trace.FileSets)),
		cold:       make([]int, len(cfg.Trace.FileSets)),
		window:     window,
		trace:      traceView{duration: cfg.Trace.Duration, requests: len(cfg.Trace.Requests)},
		result: &Result{
			Policy:  cfg.Policy.Name(),
			Servers: make(map[ServerID]*ServerStats),
			// 1 ms to 1e6 s: wide enough that the simple policy's
			// unbounded weakest-server queue still lands in buckets and
			// the tail clamps to the max observed beyond that.
			LatencyHist: metrics.NewHistogram(1e-3, 1e6, 90),
			Duration:    cfg.Trace.Duration,
		},
	}
	if cfg.Scratch != nil {
		r.eng.UseArena(&cfg.Scratch.arena)
	}
	r.doneFn = r.jobDone
	r.keepFn = func(j *sim.Job) bool { return j.Aux == 0 || j.Tag != r.drainFS }
	frac := cfg.SteadyAfterFrac
	if frac == 0 {
		frac = 0.25
	}
	r.steadyAfter = frac * cfg.Trace.Duration
	for i, speed := range cfg.Speeds {
		r.addServer(ServerID(i), speed)
	}
	if cfg.SAN.Enabled {
		r.san = newSAN(&r.eng, cfg.SAN)
	}
	r.precomputeLoads()
	return r
}

// state returns the server with the given id, nil if it never existed.
// Decommissioned servers still resolve (matching the lifetime the old
// map gave them); callers check up/gone.
func (r *runner) state(id ServerID) *serverState {
	if id < 0 || int(id) >= len(r.byID) {
		return nil
	}
	i := r.byID[id]
	if i < 0 {
		return nil
	}
	return r.states[i]
}

// resourceName is prefix followed by i in decimal, as
// fmt.Sprintf(prefix+"%d", i) would give. It is built without fmt:
// fmt's printer pool refills after a GC cycle, and a named-type
// argument sends fmt through an interface type switch whose call-site
// cache allocates on a random draw, so a Sprintf here moves a run's
// allocation count from one run to the next.
func resourceName(prefix string, i int) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(i), 10))
}

func (r *runner) addServer(id ServerID, speed float64) {
	s := &serverState{
		id:    id,
		idx:   int32(len(r.states)),
		speed: speed,
		res:   sim.NewResource(&r.eng, resourceName("server-", int(id)), speed),
		up:    true,
		stats: &ServerStats{ID: id, Speed: speed, Series: metrics.NewSeries(r.window)},
	}
	r.states = append(r.states, s)
	for int(id) >= len(r.byID) {
		r.byID = append(r.byID, -1)
	}
	r.byID[id] = s.idx
	// Binary-search insertion keeps order sorted in O(log n) compares
	// and one copy, instead of re-sorting the whole slice per
	// commission event.
	at := sort.Search(len(r.order), func(i int) bool { return r.order[i] >= id })
	r.order = append(r.order, 0)
	copy(r.order[at+1:], r.order[at:])
	r.order[at] = id
	r.result.Servers[id] = s.stats
}

// precomputeLoads builds the ground-truth per-file-set offered loads —
// the "perfect knowledge of workload properties" the prescient-class
// policies are entitled to (the workload's stationary rates, not the
// realized per-interval noise).
func (r *runner) precomputeLoads() {
	r.fsWork = make([]float64, len(r.cfg.Trace.FileSets))
	for _, req := range r.cfg.Trace.Requests {
		r.fsWork[req.FileSet] += req.Demand
		r.totalWork += req.Demand
	}
	r.fsLoads = make([]float64, len(r.fsWork))
	for i, w := range r.fsWork {
		r.fsLoads[i] = w / r.trace.duration
	}
}

func (r *runner) run() (*Result, error) {
	// Initial placement at t=0. Prescient-class policies receive their
	// perfect knowledge here, so they are balanced "from the very
	// beginning" as in the paper; ANU and simple start uniform.
	if err := r.retunePolicy(); err != nil {
		return nil, err
	}
	for fs := range r.assignment {
		r.assignment[fs] = r.policy.Place(fs)
	}

	// Arrival events, chained one at a time to keep the calendar small.
	if r.trace.requests > 0 {
		first := r.cfg.Trace.Requests[0].Time
		r.eng.ScheduleCallAt(first, runnerArrive, r)
	}

	// The tuning ticker runs for the trace duration.
	ticker := r.eng.NewTicker(r.cfg.TuneInterval, func() {
		if r.err != nil || r.eng.Now() > r.trace.duration {
			return
		}
		r.tuningRound()
	})

	// Configuration events.
	for _, ev := range r.cfg.Events {
		ev := ev
		r.eng.ScheduleAt(ev.Time, func() { r.applyEvent(ev) })
	}

	// Snapshot the SAN's in-window utilization exactly at the trace
	// end, before drain.
	if r.san != nil {
		r.eng.ScheduleAt(r.trace.duration, func() { r.san.snapshotWindow(r.trace.duration) })
	}

	runPast := r.cfg.RunPast
	if runPast == 0 {
		runPast = 10 * r.cfg.TuneInterval
	}
	end := r.trace.duration
	for _, ev := range r.cfg.Events {
		if ev.Time > end {
			end = ev.Time
		}
	}
	r.eng.Run(end + runPast)
	ticker.Stop()
	r.eng.RunAll() // drain remaining queued work
	if r.err != nil {
		return nil, r.err
	}

	for _, s := range r.states {
		s.stats.BusyTime = s.res.BusyTime()
		s.stats.Served = s.requests
	}
	r.result.EventsRun = r.eng.EventsRun()
	r.result.SharedStateBytes = r.policy.SharedStateSize()
	if r.san != nil {
		stats := r.san.stats
		r.result.SAN = &stats
	}
	return r.result, nil
}

// runnerArrive routes and submits the next trace request, then
// schedules its successor — the typed form of the chained-arrival
// closure, so the steady state schedules without allocating.
func runnerArrive(arg any) { arg.(*runner).arrive() }

func (r *runner) arrive() {
	if r.err != nil {
		return
	}
	req := r.cfg.Trace.Requests[r.nextArrival]
	r.nextArrival++
	r.dispatch(req.FileSet, req.Demand, req.Time)
	if r.nextArrival < r.trace.requests {
		r.eng.ScheduleCallAt(r.cfg.Trace.Requests[r.nextArrival].Time, runnerArrive, r)
	}
}

// dispatch routes one request (fresh or re-routed after failure) to a
// live server and submits it as a pooled job: file set in Tag, target
// server index (+1, so zero stays "not a request") in Aux, original
// arrival in Stamp.
func (r *runner) dispatch(fs int32, demand, arrive float64) {
	target := r.route(int(fs))
	if target == policy.NoServer {
		r.result.Dropped++
		return
	}
	s := r.state(target)
	if r.cold[fs] > 0 && r.cfg.ColdPenalty > 1 {
		demand *= r.cfg.ColdPenalty
		r.cold[fs]--
	}
	j := r.eng.AcquireJob()
	j.Demand = demand
	j.Tag = fs
	j.Aux = s.idx + 1
	j.Stamp = arrive
	j.Done = r.doneFn
	s.res.Submit(j)
}

// route returns the live server for a file set: the policy's placement
// when it is up, otherwise a deterministic fallback over live servers.
func (r *runner) route(fs int) ServerID {
	if fs >= 0 && fs < len(r.assignment) {
		if id := r.assignment[fs]; id != policy.NoServer {
			if s := r.state(id); s != nil && s.up {
				return id
			}
		}
	}
	// Fallback: spread over live servers by file-set index.
	live := r.liveBuf[:0]
	for _, id := range r.order {
		if s := r.state(id); s.up && !s.gone {
			live = append(live, id)
		}
	}
	r.liveBuf = live
	if len(live) == 0 {
		return policy.NoServer
	}
	r.result.Rerouted++
	return live[fs%len(live)]
}

// jobDone records a finished request and, when the SAN is modelled,
// releases the client's data transfer to the shared disks.
func (r *runner) jobDone(j *sim.Job) {
	s := r.states[j.Aux-1]
	latency := r.eng.Now() - j.Stamp
	r.result.Completed++
	r.result.Aggregate.Add(latency)
	r.result.LatencyHist.Add(latency)
	if r.eng.Now() >= r.steadyAfter {
		r.result.SteadyAggregate.Add(latency)
	}
	s.requests++
	s.stats.Latency.Add(latency)
	s.stats.Series.Add(r.eng.Now(), latency)
	s.intervalCount++
	s.intervalSum += latency
	if r.san != nil {
		r.san.transfer(j.Tag, j.Stamp)
	}
}

// tuningRound runs one periodic load-placement tuning round.
func (r *runner) tuningRound() {
	r.round++
	r.result.TuningRounds++
	if err := r.retunePolicy(); err != nil {
		r.err = err
		r.eng.Stop()
		return
	}
	r.applyPlacement(true)
}

// retunePolicy snapshots the environment and retunes the policy. The
// snapshot slices are scratch buffers reused across rounds; policies
// must not retain them past Retune (they copy what they keep, as the
// long-lived FileSetLoads slice has always required).
func (r *runner) retunePolicy() error {
	env := policy.Env{Now: r.eng.Now()}
	servers := r.envServers[:0]
	reports := r.envReports[:0]
	for _, id := range r.order {
		s := r.state(id)
		if s.gone {
			continue
		}
		servers = append(servers, policy.ServerInfo{ID: id, Speed: s.speed, Up: s.up})
		if s.up {
			rep := anu.Report{Server: id, Requests: s.intervalCount}
			if s.intervalCount > 0 {
				rep.Latency = s.intervalSum / float64(s.intervalCount)
				if r.cfg.BacklogAwareReports {
					rep.Latency += s.res.Backlog() / s.speed
				}
			}
			reports = append(reports, rep)
		}
		s.intervalCount, s.intervalSum = 0, 0
	}
	r.envServers, r.envReports = servers, reports
	env.Servers, env.Reports = servers, reports
	env.FileSetLoads = r.fsLoads
	if err := r.policy.Retune(&env); err != nil {
		return fmt.Errorf("clustersim: retune at t=%.0f: %w", r.eng.Now(), err)
	}
	return nil
}

// applyPlacement recomputes every file set's placement, applies movement
// costs, and records the round's movement.
func (r *runner) applyPlacement(record bool) {
	moved := 0
	var movedWork float64
	for fs := range r.assignment {
		next := r.policy.Place(fs)
		prev := r.assignment[fs]
		if next == prev || next == policy.NoServer {
			continue
		}
		r.assignment[fs] = next
		if prev == policy.NoServer {
			continue // initial placement, not a move
		}
		moved++
		movedWork += r.fsWork[fs]
		// The shedding server flushes its cache for the departing file
		// set; the acquiring server starts cold.
		if old := r.state(prev); old != nil && old.up {
			if r.cfg.MoveFlushTime > 0 {
				old.res.InjectBusy(r.cfg.MoveFlushTime)
			}
			if r.cfg.RedirectOnMove {
				r.drainFS = int32(fs)
				redirected := old.res.DrainQueue(r.keepFn)
				for _, j := range redirected {
					fs32, demand, arrive := j.Tag, j.Demand, j.Stamp
					r.eng.ReleaseJob(j)
					r.dispatch(fs32, demand, arrive)
				}
			}
		}
		r.cold[fs] = r.cfg.ColdRequests
	}
	if !record {
		return
	}
	frac := 0.0
	if r.totalWork > 0 {
		frac = movedWork / r.totalWork
	}
	r.result.Moves = append(r.result.Moves, MoveRecord{
		Round:         r.round,
		Time:          r.eng.Now(),
		FileSetsMoved: moved,
		WorkMovedFrac: frac,
	})
	r.result.TotalMoved += moved
	r.result.TotalWorkMovedFrac += frac
}

// reclaimOrphans re-dispatches a failed server's queued request jobs
// (latency keeps counting from the original arrival, as a client retry
// would observe) and recycles injected flush work, which dies with the
// server.
func (r *runner) reclaimOrphans(orphans []*sim.Job) {
	for _, j := range orphans {
		if j.Aux == 0 {
			r.eng.ReleaseJob(j)
			continue
		}
		fs, demand, arrive := j.Tag, j.Demand, j.Stamp
		r.eng.ReleaseJob(j)
		r.dispatch(fs, demand, arrive)
	}
}

// applyEvent executes a scheduled configuration change.
func (r *runner) applyEvent(ev Event) {
	if r.err != nil {
		return
	}
	switch ev.Kind {
	case Fail:
		s := r.state(ev.Server)
		if s == nil || !s.up {
			return
		}
		orphans := s.res.Fail()
		s.up = false
		r.reactToEvent()
		r.reclaimOrphans(orphans)
	case Recover:
		s := r.state(ev.Server)
		if s == nil || s.up || s.gone {
			return
		}
		s.res.Recover()
		s.up = true
		r.reactToEvent()
	case Commission:
		if r.state(ev.Server) != nil {
			return
		}
		r.addServer(ev.Server, ev.Speed)
		r.reactToEvent()
	case Decommission:
		s := r.state(ev.Server)
		if s == nil || s.gone {
			return
		}
		orphans := s.res.Fail()
		s.up = false
		s.gone = true
		r.reactToEvent()
		r.reclaimOrphans(orphans)
	}
}

// reactToEvent retunes immediately if configured, so placement reflects
// the new topology without waiting for the next interval.
func (r *runner) reactToEvent() {
	if !r.cfg.RetuneOnEvents {
		return
	}
	if err := r.retunePolicy(); err != nil {
		r.err = err
		r.eng.Stop()
		return
	}
	r.applyPlacement(false)
}
