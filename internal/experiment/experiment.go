// Package experiment defines one parameterized, reproducible experiment
// per results figure in the paper's evaluation (Figures 4-8; Figures 1-3
// are architecture diagrams with no data). Each experiment builds its
// workload, runs the cluster simulation for the policies it compares,
// and returns structured results that cmd/paperfigs renders and
// bench_test.go regenerates.
package experiment

import (
	"errors"
	"fmt"

	"anurand/internal/anu"
	"anurand/internal/clustersim"
	"anurand/internal/hashx"
	"anurand/internal/placement"
	"anurand/internal/policy"
	"anurand/internal/workload"
)

// PolicyName enumerates the compared systems.
type PolicyName string

// The four systems of Section 5.1.
const (
	Simple    PolicyName = "simple"
	ANU       PolicyName = "anu"
	Prescient PolicyName = "prescient"
	VP        PolicyName = "vp"
)

// AllPolicies lists the four systems in the paper's presentation order.
var AllPolicies = []PolicyName{Simple, ANU, Prescient, VP}

// Policies returns every runnable policy name: the paper's four
// canonical systems followed by any additionally registered placement
// strategies, so a strategy added to the placement registry appears in
// every figure without touching this package. A registry tag that
// collides with a canonical name (e.g. "anu") resolves to the canonical
// system and is not listed twice.
func Policies() []PolicyName {
	out := append([]PolicyName(nil), AllPolicies...)
	seen := make(map[PolicyName]bool, len(out))
	for _, name := range out {
		seen[name] = true
	}
	for _, tag := range placement.Names() {
		if name := PolicyName(tag); !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// Config parameterizes a suite of experiments.
type Config struct {
	// Seed drives workload generation. The paper reports single runs;
	// use different seeds for replications.
	Seed uint64

	// HashSeed seeds the shared hash family.
	HashSeed uint64

	// DefaultVP is the virtual-processor count used when the VP system
	// appears in a multi-policy comparison (the paper's default v=5,
	// i.e. 25 VPs for 5 servers).
	DefaultVP int

	// Quick shrinks the workloads (~10x fewer requests, shorter
	// duration) so tests and benchmarks finish fast. Figure shapes are
	// preserved; absolute values shift.
	Quick bool

	// Workers bounds the experiment worker pool: how many policy×trace×
	// parameter cells simulate concurrently. 0 means GOMAXPROCS; 1 runs
	// the sequential path. Results are bit-identical for every value —
	// each cell is an independent deterministic simulation over a shared
	// read-only trace, and cells are assembled in a fixed order.
	Workers int
}

// DefaultConfig returns the paper's experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, HashSeed: 42, DefaultVP: 25}
}

// Suite runs the figures over shared, lazily generated workloads, so a
// caller asking for Figures 5, 6 and 7 only pays for one simulation per
// policy.
type Suite struct {
	cfg       Config
	synthetic *workload.Trace
	dfslike   *workload.Trace
	hot       *workload.Trace
	fig5      map[PolicyName]*clustersim.Result
	fig4      map[PolicyName]*clustersim.Result
}

// NewSuite creates a suite.
func NewSuite(cfg Config) *Suite {
	if cfg.DefaultVP <= 0 {
		cfg.DefaultVP = 25
	}
	return &Suite{cfg: cfg}
}

// Synthetic returns the suite's synthetic trace (Figure 5 workload),
// generating it on first use.
func (s *Suite) Synthetic() (*workload.Trace, error) {
	if s.synthetic != nil {
		return s.synthetic, nil
	}
	wcfg := workload.DefaultSynthetic()
	wcfg.Seed = s.cfg.Seed
	if s.cfg.Quick {
		wcfg.Duration = 40 * 60
		wcfg.TargetRequests = 13000
		wcfg.NumFileSets = 50
	}
	tr, err := wcfg.Generate()
	if err != nil {
		return nil, err
	}
	s.synthetic = tr
	return tr, nil
}

// DFSLike returns the suite's DFSTrace-like trace (Figure 4 workload).
func (s *Suite) DFSLike() (*workload.Trace, error) {
	if s.dfslike != nil {
		return s.dfslike, nil
	}
	wcfg := workload.DefaultDFSLike()
	wcfg.Seed = s.cfg.Seed + 1
	if s.cfg.Quick {
		wcfg.Duration = 1200
		wcfg.TargetRequests = 20000
	}
	tr, err := wcfg.Generate()
	if err != nil {
		return nil, err
	}
	s.dfslike = tr
	return tr, nil
}

// HotSynthetic returns the Figure 8 workload: the synthetic workload
// with the demand scale c tuned hotter (~80% cluster utilization). At
// the Figure 5 operating point the cluster has enough headroom that
// even five coarse chunks pack without queueing damage; the paper's
// Figure 8 granularity effect — few virtual processors balance poorly —
// only resolves when capacity is tight.
func (s *Suite) HotSynthetic() (*workload.Trace, error) {
	if s.hot != nil {
		return s.hot, nil
	}
	wcfg := workload.DefaultSynthetic()
	wcfg.Seed = s.cfg.Seed
	wcfg.BaseDemand = 3.6
	if s.cfg.Quick {
		wcfg.Duration = 40 * 60
		wcfg.TargetRequests = 13000
	}
	tr, err := wcfg.Generate()
	if err != nil {
		return nil, err
	}
	s.hot = tr
	return tr, nil
}

// Servers returns the paper's five-server heterogeneous cluster ids.
func Servers() []policy.ServerID { return []policy.ServerID{0, 1, 2, 3, 4} }

// Speeds returns the paper's capacity factors.
func Speeds() []float64 { return []float64{1, 3, 5, 7, 9} }

// SpeedWeights returns the paper's capacity factors keyed by server id —
// the a-priori knowledge handed to weight-aware strategies (rendezvous,
// weighted-static, power-of-d) through placement.Options.Weights.
func SpeedWeights() map[policy.ServerID]float64 {
	servers, speeds := Servers(), Speeds()
	weights := make(map[policy.ServerID]float64, len(servers))
	for i, id := range servers {
		weights[id] = speeds[i]
	}
	return weights
}

// paperServers and speedWeights are Servers and SpeedWeights built
// once and shared read-only by every cell: each policy constructor
// copies what it keeps, and building them per cell would add
// allocations to every figure cell (bench-gate-allocs pins those
// counts).
var paperServers, speedWeights = Servers(), SpeedWeights()

// BuildPolicy constructs the suite's policy for name over a trace: the
// paper's five servers and speed weights under the suite's hash seed.
func (s *Suite) BuildPolicy(name PolicyName, trace *workload.Trace, numVP int) (policy.Placer, error) {
	return BuildPolicy(name, trace, paperServers, speedWeights, s.cfg.HashSeed, numVP)
}

// BuildPolicy constructs one of the compared systems over a trace. The
// four canonical names build the paper's policies; any other name is
// resolved through the placement-strategy registry, so a registered
// strategy ("chord", "chord-bounded", ...) is measurable without
// touching this switch. weights is the a-priori capacity knowledge
// handed to weight-aware strategies; the others ignore it. numVP sizes
// the vp policy. Every path reuses the trace's memoized KeySet:
// file-set names are hashed once per trace, not once per cell.
func BuildPolicy(name PolicyName, trace *workload.Trace, servers []policy.ServerID, weights map[policy.ServerID]float64, hashSeed uint64, numVP int) (policy.Placer, error) {
	family := hashx.NewFamily(hashSeed)
	keys := trace.Keys()
	switch name {
	case Simple:
		return policy.NewSimpleKeys(family, keys, servers)
	case ANU:
		return policy.NewANUKeys(family, keys, servers, anu.DefaultControllerConfig())
	case Prescient:
		return policy.NewPrescient(trace.FileSets)
	case VP:
		return policy.NewVirtualProcessorKeys(family, keys, numVP)
	}
	for _, tag := range placement.Names() {
		if tag == string(name) {
			return policy.NewStrategyPlacerKeys(tag, keys, servers, placement.Options{
				HashSeed: hashSeed,
				Weights:  weights,
			})
		}
	}
	return nil, fmt.Errorf("experiment: unknown policy %q (want simple, anu, prescient, vp, or a registered strategy: %v)",
		name, placement.Names())
}

// runPolicies simulates the trace under each policy, fanning cells
// across the suite's worker pool. Failures do not abort the sweep: the
// map carries every cell that succeeded and the error joins every cell
// that did not, so one broken policy cannot hide the others' figures.
func (s *Suite) runPolicies(trace *workload.Trace, names []PolicyName) (map[PolicyName]*clustersim.Result, error) {
	results := make([]*clustersim.Result, len(names))
	errs := make([]error, len(names))
	s.forEachCell(len(names), func(i int, sc *clustersim.Scratch) {
		placer, err := s.BuildPolicy(names[i], trace, s.cfg.DefaultVP)
		if err != nil {
			errs[i] = err
			return
		}
		cfg := clustersim.DefaultConfig(trace, placer)
		cfg.Scratch = sc
		res, err := clustersim.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiment: %s: %w", names[i], err)
			return
		}
		results[i] = res
	})
	out := make(map[PolicyName]*clustersim.Result, len(names))
	for i, name := range names {
		if results[i] != nil {
			out[name] = results[i]
		}
	}
	return out, errors.Join(errs...)
}

// Fig4 reproduces Figure 4: per-server latency over time under the
// DFSTrace-like workload for all four systems.
func (s *Suite) Fig4() (map[PolicyName]*clustersim.Result, error) {
	if s.fig4 != nil {
		return s.fig4, nil
	}
	trace, err := s.DFSLike()
	if err != nil {
		return nil, err
	}
	res, err := s.runPolicies(trace, AllPolicies)
	if err != nil {
		return res, err
	}
	s.fig4 = res
	return res, nil
}

// Fig5 reproduces Figure 5: per-server latency over time under the
// synthetic workload for all four systems.
func (s *Suite) Fig5() (map[PolicyName]*clustersim.Result, error) {
	if s.fig5 != nil {
		return s.fig5, nil
	}
	trace, err := s.Synthetic()
	if err != nil {
		return nil, err
	}
	res, err := s.runPolicies(trace, AllPolicies)
	if err != nil {
		return res, err
	}
	s.fig5 = res
	return res, nil
}

// Fig6Row is one system's aggregate entry (Figure 6a) plus its
// per-server means (Figure 6b). The quantiles come from the run's
// latency histogram: the paper's consistency claim is about the
// distribution, so the table carries the tail alongside the mean.
type Fig6Row struct {
	Policy         PolicyName
	MeanLatency    float64
	StdDev         float64
	P50            float64
	P95            float64
	P99            float64
	P999           float64
	PerServerMean  map[policy.ServerID]float64
	PerServerCount map[policy.ServerID]uint64
}

// Fig6 reproduces Figure 6: aggregate mean latency with standard
// deviation (a) and per-server mean latency (b), for ANU, prescient and
// VP (the paper omits simple randomization here; it is included as
// context).
func (s *Suite) Fig6() ([]Fig6Row, error) {
	results, err := s.Fig5()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, 0, len(AllPolicies))
	for _, name := range AllPolicies {
		res := results[name]
		row := Fig6Row{
			Policy:         name,
			MeanLatency:    res.MeanLatency(),
			StdDev:         res.LatencyStdDev(),
			P50:            res.LatencyP50(),
			P95:            res.LatencyP95(),
			P99:            res.LatencyP99(),
			P999:           res.LatencyP999(),
			PerServerMean:  res.PerServerMeans(),
			PerServerCount: make(map[policy.ServerID]uint64),
		}
		for id, st := range res.Servers {
			row.PerServerCount[id] = st.Latency.N()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7 reproduces Figure 7: ANU's per-round file-set movement and the
// cumulative percentage of workload moved over the synthetic run.
func (s *Suite) Fig7() ([]clustersim.MoveRecord, error) {
	results, err := s.Fig5()
	if err != nil {
		return nil, err
	}
	return results[ANU].Moves, nil
}

// ExtHotspot is the repository's extension experiment beyond the
// paper's figures: the four systems under a non-stationary hotspot
// workload (workload.HotspotConfig), where the hot file sets rotate
// every 25 minutes. It exercises the adaptivity claim of Section 3:
// feedback-driven ANU re-balances after every shift, while policies
// that assign from long-run average loads (the evaluation's
// perfect-knowledge model) cannot follow the hot set.
func (s *Suite) ExtHotspot() (map[PolicyName]*clustersim.Result, error) {
	wcfg := workload.DefaultHotspot()
	wcfg.Seed = s.cfg.Seed + 2
	if s.cfg.Quick {
		wcfg.Duration = 50 * 60
		wcfg.TargetRequests = 16000
		wcfg.ShiftEvery = 10 * 60
	}
	trace, err := wcfg.Generate()
	if err != nil {
		return nil, err
	}
	return s.runPolicies(trace, AllPolicies)
}

// ExtSAN quantifies the paper's Section 3 motivation: an imbalanced
// metadata tier leaves the shared-disk SAN underutilized, because
// clients blocked on metadata cannot issue their data transfers. It
// runs the synthetic workload with the data path enabled and reports
// each system's in-window SAN utilization and client end-to-end
// latency.
func (s *Suite) ExtSAN() (map[PolicyName]*clustersim.Result, error) {
	trace, err := s.Synthetic()
	if err != nil {
		return nil, err
	}
	results := make([]*clustersim.Result, len(AllPolicies))
	errs := make([]error, len(AllPolicies))
	s.forEachCell(len(AllPolicies), func(i int, sc *clustersim.Scratch) {
		placer, err := s.BuildPolicy(AllPolicies[i], trace, s.cfg.DefaultVP)
		if err != nil {
			errs[i] = err
			return
		}
		cfg := clustersim.DefaultConfig(trace, placer)
		cfg.Scratch = sc
		cfg.SAN = clustersim.SANConfig{Enabled: true, Disks: 16, TransferDemand: 1.5}
		res, err := clustersim.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiment: san %s: %w", AllPolicies[i], err)
			return
		}
		results[i] = res
	})
	out := make(map[PolicyName]*clustersim.Result, len(AllPolicies))
	for i, name := range AllPolicies {
		if results[i] != nil {
			out[name] = results[i]
		}
	}
	return out, errors.Join(errs...)
}

// StrategyComparison runs every runnable policy — the paper's four
// systems plus each additional registered placement strategy — over the
// synthetic workload. It is the registry-driven figure: a strategy added
// to the placement registry shows up here with no experiment changes.
// Like runPolicies, it returns whatever cells succeeded alongside a
// joined error for those that did not.
func (s *Suite) StrategyComparison() (map[PolicyName]*clustersim.Result, error) {
	trace, err := s.Synthetic()
	if err != nil {
		return nil, err
	}
	return s.runPolicies(trace, Policies())
}

// Fig8Point is one VP-count sample of Figure 8, with the reference
// systems' latencies and everyone's shared-state size.
type Fig8Point struct {
	NumVP            int
	MeanLatency      float64
	SteadyLatency    float64
	StdDev           float64
	SharedStateBytes int
}

// Fig8Refs holds the ANU and prescient reference measurements for one
// operating point. Steady latencies exclude the first quarter of the
// run, separating converged behaviour from adaptation transients
// (relevant for ANU, which starts with no knowledge and pays to learn).
type Fig8Refs struct {
	ANULatency       float64
	ANUSteady        float64
	ANUSharedState   int
	PrescientLatency float64
	PrescientSteady  float64
	PrescientState   int
	ANUCrossoverAt   int // smallest VP count whose steady latency <= ANU's
}

// Fig8Result carries the VP sweep at two operating points: the paper's
// synthetic workload (Moderate, ~71% utilization) and a hotter variant
// (Hot, ~80%) where the granularity effect — few virtual processors
// balance poorly — resolves clearly. See HotSynthetic.
type Fig8Result struct {
	Moderate     []Fig8Point
	ModerateRefs Fig8Refs
	Hot          []Fig8Point
	HotRefs      Fig8Refs
}

// Fig8 reproduces Figure 8: the virtual-processor system's latency as
// the VP count sweeps from one per server to one per file set, against
// the ANU and prescient references, plus the shared-state cost.
func (s *Suite) Fig8(counts []int) (*Fig8Result, error) {
	if len(counts) == 0 {
		counts = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	out := &Fig8Result{}
	moderate, err := s.Synthetic()
	if err != nil {
		return nil, err
	}
	if out.Moderate, out.ModerateRefs, err = s.fig8Sweep(moderate, counts); err != nil {
		return nil, err
	}
	hot, err := s.HotSynthetic()
	if err != nil {
		return nil, err
	}
	if out.Hot, out.HotRefs, err = s.fig8Sweep(hot, counts); err != nil {
		return nil, err
	}
	return out, nil
}

// fig8Sweep runs the VP sweep plus references on one trace. The two
// reference runs and every VP count are independent cells, so the whole
// sweep fans out over the worker pool; refs and points are assembled in
// the sequential order afterwards.
func (s *Suite) fig8Sweep(trace *workload.Trace, counts []int) ([]Fig8Point, Fig8Refs, error) {
	type cell struct {
		name  PolicyName
		numVP int
	}
	cells := make([]cell, 0, len(counts)+2)
	cells = append(cells, cell{ANU, 0}, cell{Prescient, 0})
	for _, n := range counts {
		cells = append(cells, cell{VP, n})
	}
	results := make([]*clustersim.Result, len(cells))
	errs := make([]error, len(cells))
	s.forEachCell(len(cells), func(i int, sc *clustersim.Scratch) {
		placer, err := s.BuildPolicy(cells[i].name, trace, cells[i].numVP)
		if err != nil {
			errs[i] = err
			return
		}
		cfg := clustersim.DefaultConfig(trace, placer)
		cfg.Scratch = sc
		res, err := clustersim.Run(cfg)
		if err != nil {
			errs[i] = fmt.Errorf("experiment: fig8 %s: %w", cells[i].name, err)
			return
		}
		results[i] = res
	})
	if err := errors.Join(errs...); err != nil {
		return nil, Fig8Refs{}, err
	}
	anuRes, prescientRes := results[0], results[1]
	refs := Fig8Refs{
		ANULatency:       anuRes.MeanLatency(),
		ANUSteady:        anuRes.SteadyMeanLatency(),
		ANUSharedState:   anuRes.SharedStateBytes,
		PrescientLatency: prescientRes.MeanLatency(),
		PrescientSteady:  prescientRes.SteadyMeanLatency(),
		PrescientState:   prescientRes.SharedStateBytes,
		ANUCrossoverAt:   -1,
	}
	var points []Fig8Point
	for i, n := range counts {
		res := results[2+i]
		pt := Fig8Point{
			NumVP:            n,
			MeanLatency:      res.MeanLatency(),
			SteadyLatency:    res.SteadyMeanLatency(),
			StdDev:           res.LatencyStdDev(),
			SharedStateBytes: res.SharedStateBytes,
		}
		points = append(points, pt)
		if refs.ANUCrossoverAt < 0 && pt.SteadyLatency <= refs.ANUSteady {
			refs.ANUCrossoverAt = n
		}
	}
	return points, refs, nil
}
