// Package anurand is a load-management library for heterogeneous
// clusters based on adaptive, non-uniform (ANU) randomization, a
// reproduction of "Achieving Performance Consistency in Heterogeneous
// Clusters" (Wu and Burns, HPDC 2004).
//
// The core abstraction is the Balancer: workload units (file sets, shard
// keys, queue partitions — anything with a stable name) are hashed onto
// a unit interval, and servers own tunable regions of that interval
// summing to exactly half of it. Lookup is a pure hash computation with
// no I/O; balancing is done by scaling region sizes from periodic
// latency reports, so the only replicated state is the O(servers) region
// table. The scheme adapts to server heterogeneity, workload skew,
// failures, recoveries and commissioning without configuration or
// a-priori capacity knowledge.
//
// A minimal use:
//
//	b, err := anurand.New([]anurand.ServerID{0, 1, 2})
//	...
//	owner, ok := b.Lookup("/home/alice") // route the request
//	...
//	// every couple of minutes, feed back observed latencies:
//	b.Tune([]anurand.Report{
//		{Server: 0, Requests: 1200, LatencySeconds: 0.9},
//		{Server: 1, Requests: 800, LatencySeconds: 2.1},
//		{Server: 2, Requests: 150, LatencySeconds: 0.4},
//	})
//
// The Balancer is a thin concurrency shell over a pluggable placement
// strategy (internal/placement). ANU randomization is the default;
// Options.Strategy selects an alternative such as the bounded-load
// consistent-hash ring, and every strategy runs under the same tuning,
// snapshot, and failure machinery — that is what makes the paper's
// comparisons apples-to-apples.
//
// The repository also contains the paper's full evaluation apparatus: a
// discrete-event cluster simulator, the synthetic and trace-like
// workload generators, the three comparison systems (simple
// randomization, dynamic prescient, virtual processors), and a harness
// that regenerates every figure of the paper (cmd/paperfigs).
package anurand

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"anurand/internal/anu"
	"anurand/internal/placement"
)

// ServerID identifies a server. IDs are assigned by the caller, must be
// non-negative, and stay stable across failure and recovery.
type ServerID int32

// Report is one server's performance sample for a tuning interval.
type Report struct {
	// Server is the reporting server.
	Server ServerID
	// Requests is the number of requests completed in the interval.
	Requests uint64
	// LatencySeconds is their mean response time. Ignored when
	// Requests is zero.
	LatencySeconds float64
	// Failed marks the server as down; its region is released to the
	// survivors.
	Failed bool
}

// Tuning exposes the delegate controller's knobs. The zero value means
// "use the defaults from the paper reproduction"; see DefaultTuning.
type Tuning struct {
	// Gamma is the feedback exponent applied to the latency ratio.
	Gamma float64
	// MaxStep bounds per-round region growth; MaxShrink bounds
	// per-round shrinking.
	MaxStep, MaxShrink float64
	// DeadBand suppresses scaling for servers within this relative
	// distance of the system average latency.
	DeadBand float64
	// MinWeight keeps every live server addressable with at least this
	// fraction of the mean region weight.
	MinWeight float64
	// Smoothing is the EWMA coefficient on reported latencies.
	Smoothing float64
}

// DefaultTuning returns the controller configuration used throughout
// the paper reproduction.
func DefaultTuning() Tuning {
	c := anu.DefaultControllerConfig()
	return Tuning{
		Gamma:     c.Gamma,
		MaxStep:   c.MaxStep,
		MaxShrink: c.MaxShrink,
		DeadBand:  c.DeadBand,
		MinWeight: c.MinWeight,
		Smoothing: c.Smoothing,
	}
}

// Validate rejects nonsensical knob values with a field-level message.
// Zero means "use the default" throughout, so only negative or NaN
// values are field errors here; positive values outside a knob's valid
// range (for example MaxStep <= 1) are reported by the controller's own
// validation with the ranges attached.
func (t Tuning) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Gamma", t.Gamma},
		{"MaxStep", t.MaxStep},
		{"MaxShrink", t.MaxShrink},
		{"DeadBand", t.DeadBand},
		{"MinWeight", t.MinWeight},
		{"Smoothing", t.Smoothing},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("anurand: Tuning.%s is NaN; leave it zero to use the default", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("anurand: Tuning.%s is negative (%g); tuning knobs must be positive, or zero to use the default", f.name, f.v)
		}
	}
	return nil
}

func (t Tuning) toConfig() anu.ControllerConfig {
	def := anu.DefaultControllerConfig()
	cfg := anu.ControllerConfig{
		Gamma:      pick(t.Gamma, def.Gamma),
		MaxStep:    pick(t.MaxStep, def.MaxStep),
		MaxShrink:  pick(t.MaxShrink, def.MaxShrink),
		DeadBand:   pick(t.DeadBand, def.DeadBand),
		MinWeight:  pick(t.MinWeight, def.MinWeight),
		Smoothing:  pick(t.Smoothing, def.Smoothing),
		IdleGrowth: def.IdleGrowth,
	}
	return cfg
}

func pick(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// Options configures a Balancer.
type Options struct {
	// HashSeed seeds the agreed-upon hash family. All nodes that share
	// a placement must use the same seed.
	HashSeed uint64
	// Tuning overrides controller parameters; zero fields keep
	// defaults.
	Tuning Tuning
	// Strategy selects the placement strategy by registered name
	// ("anu", "chord", "chord-bounded"). Empty means ANU, the paper's
	// scheme. In Restore, a non-empty Strategy additionally asserts the
	// snapshot's tag: a snapshot from a different strategy is rejected
	// instead of silently adopted.
	Strategy string
	// LoadBound is the bounded-load factor for the "chord-bounded"
	// strategy: no server should carry more than LoadBound times the
	// mean per-server request rate. Zero means the default (1.25);
	// other strategies ignore it.
	LoadBound float64
	// Weights carries per-server capacity weights — a-priori knowledge
	// of relative server speeds — for the weight-aware strategies
	// ("rendezvous", "weighted-static", "power-of-d"). Zero value means
	// uniform capacity; absent servers default to weight 1. Strategies
	// without capacity knowledge ignore it. In Restore the snapshot's
	// own weights win, as with every other replicated field.
	Weights map[ServerID]float64
	// Choices is the d of the "power-of-d" sampler; zero means the
	// default (2). Other strategies ignore it.
	Choices int
}

func (o Options) placementOptions() placement.Options {
	po := placement.Options{
		HashSeed:   o.HashSeed,
		Controller: o.Tuning.toConfig(),
		LoadBound:  o.LoadBound,
		Choices:    o.Choices,
	}
	if len(o.Weights) > 0 {
		po.Weights = make(map[placement.ServerID]float64, len(o.Weights))
		for id, w := range o.Weights {
			po.Weights[placement.ServerID(id)] = w
		}
	}
	return po
}

func (o Options) strategyName() string {
	if o.Strategy == "" {
		return placement.StrategyANU
	}
	return o.Strategy
}

// Strategies lists the registered placement strategy names accepted by
// Options.Strategy.
func Strategies() []string { return placement.Names() }

// Balancer is a thread-safe placement strategy with its feedback
// machinery — the embeddable form of the paper's load-management
// system. The default strategy is the paper's ANU map + controller.
//
// Concurrency model (RCU-style snapshots): the placement strategy is an
// immutable snapshot published through an atomic pointer. Readers
// (Lookup, LookupProbes, LookupBatch, Shares, Snapshot, …) load the
// pointer and never take a lock, never block a writer, and scale
// linearly with cores. Writers (Tune, Fail, Recover, AddServer,
// RemoveServer) serialize behind a mutex, clone the current strategy,
// mutate the clone, and publish it; a failed mutation publishes
// nothing, so readers always observe a complete, invariant-satisfying
// placement. Writes are O(servers + partitions) — a few microseconds,
// at the paper's tuning cadence of minutes.
type Balancer struct {
	cur atomic.Pointer[placement.Strategy] // current immutable placement snapshot
	mu  sync.Mutex                         // serializes writers
}

// New creates a Balancer over the given servers with equal initial
// shares and default options (ANU strategy).
func New(servers []ServerID) (*Balancer, error) {
	return NewWithOptions(servers, Options{})
}

// NewWithOptions creates a Balancer with explicit options.
func NewWithOptions(servers []ServerID, opts Options) (*Balancer, error) {
	if err := opts.Tuning.Validate(); err != nil {
		return nil, err
	}
	ids := make([]placement.ServerID, len(servers))
	for i, s := range servers {
		ids[i] = placement.ServerID(s)
	}
	s, err := placement.New(opts.strategyName(), ids, opts.placementOptions())
	if err != nil {
		return nil, fmt.Errorf("anurand: %w", err)
	}
	b := &Balancer{}
	b.cur.Store(&s)
	return b, nil
}

// Restore reconstructs a Balancer from a Snapshot, as a node would on
// receiving the delegate's replicated state. The snapshot carries its
// strategy tag; set Options.Strategy to additionally assert it.
func Restore(snapshot []byte, opts Options) (*Balancer, error) {
	if err := opts.Tuning.Validate(); err != nil {
		return nil, err
	}
	s, err := placement.Decode(snapshot, opts.placementOptions())
	if err != nil {
		return nil, fmt.Errorf("anurand: %w", err)
	}
	if opts.Strategy != "" && s.Name() != opts.Strategy {
		return nil, fmt.Errorf("anurand: snapshot carries strategy %q, want %q", s.Name(), opts.Strategy)
	}
	b := &Balancer{}
	b.cur.Store(&s)
	return b, nil
}

// strategy returns the current immutable placement strategy. The result
// must be treated as read-only; mutators work on clones and republish.
func (b *Balancer) strategy() placement.Strategy { return *b.cur.Load() }

// Strategy returns the active placement strategy's registered name.
func (b *Balancer) Strategy() string { return b.strategy().Name() }

// mutate runs f on a private clone of the current strategy under the
// writer lock and publishes the clone only if f succeeds, so a failed
// operation leaves the visible placement untouched.
func (b *Balancer) mutate(f func(s placement.Strategy) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	clone := (*b.cur.Load()).Clone()
	if err := f(clone); err != nil {
		return err
	}
	b.cur.Store(&clone)
	return nil
}

// Lookup returns the server responsible for key. The boolean is false
// only when every server has failed. Lookup is lock-free: it reads the
// current placement snapshot and resolves the key against it.
func (b *Balancer) Lookup(key string) (ServerID, bool) {
	id, ok := placement.Lookup(b.strategy(), key)
	if !ok {
		return 0, false
	}
	return ServerID(id), true
}

// LookupProbes returns the placement along with the number of
// data-structure probes used (hash probes for ANU — expected two under
// half occupancy — or ring probes for the chord strategies).
func (b *Balancer) LookupProbes(key string) (ServerID, int, bool) {
	id, probes, ok := placement.LookupProbes(b.strategy(), key)
	if !ok {
		return 0, probes, false
	}
	return ServerID(id), probes, true
}

// NoOwner is stored by LookupBatch for keys that cannot be placed
// (every server has failed).
const NoOwner ServerID = -1

// LookupBatch resolves keys[i] into owners[i] for every key, against a
// single placement snapshot — concurrent tuning never splits a batch
// across two placements. It returns the number of keys that resolved to
// a live server; unresolved entries are set to NoOwner. owners must be
// at least as long as keys. Like Lookup, the batch path is lock-free.
func (b *Balancer) LookupBatch(keys []string, owners []ServerID) int {
	if len(owners) < len(keys) {
		panic(fmt.Sprintf("anurand: LookupBatch: %d owners for %d keys", len(owners), len(keys)))
	}
	s := b.strategy()
	resolved := 0
	for i, key := range keys {
		id, ok := placement.Lookup(s, key)
		if !ok {
			owners[i] = NoOwner
			continue
		}
		owners[i] = ServerID(id)
		resolved++
	}
	return resolved
}

// Tune applies one feedback round from per-server latency reports and
// reports whether the placement changed. It is the delegate's
// operation; in a cluster, distribute Snapshot() to the other nodes
// afterwards.
func (b *Balancer) Tune(reports []Report) (bool, error) {
	rs := make([]placement.Report, len(reports))
	for i, r := range reports {
		rs[i] = placement.Report{
			Server:   placement.ServerID(r.Server),
			Requests: r.Requests,
			Latency:  r.LatencySeconds,
			Failed:   r.Failed,
		}
	}
	var changed bool
	err := b.mutate(func(s placement.Strategy) error {
		var err error
		changed, err = s.Tune(rs)
		return err
	})
	if err != nil {
		return changed, fmt.Errorf("anurand: %w", err)
	}
	return changed, nil
}

// AddServer commissions a new server with an equal share of the key
// space.
func (b *Balancer) AddServer(id ServerID) error {
	return b.mutate(func(s placement.Strategy) error { return s.AddServer(placement.ServerID(id)) })
}

// RemoveServer decommissions a server; its load fails over to the
// survivors.
func (b *Balancer) RemoveServer(id ServerID) error {
	return b.mutate(func(s placement.Strategy) error { return s.RemoveServer(placement.ServerID(id)) })
}

// Fail records a server failure; only its file sets move.
func (b *Balancer) Fail(id ServerID) error {
	return b.mutate(func(s placement.Strategy) error { return s.Fail(placement.ServerID(id)) })
}

// Recover re-admits a failed server with an equal share.
func (b *Balancer) Recover(id ServerID) error {
	return b.mutate(func(s placement.Strategy) error { return s.Recover(placement.ServerID(id)) })
}

// SetWeights installs updated per-server capacity weights on a
// weight-aware strategy (rendezvous, weighted-static, power-of-d). The
// update is partial: listed servers take the new weight, absent servers
// keep theirs. Strategies without capacity knowledge return an error.
func (b *Balancer) SetWeights(weights map[ServerID]float64) error {
	return b.mutate(func(s placement.Strategy) error {
		rw, ok := s.(placement.Reweigher)
		if !ok {
			return fmt.Errorf("anurand: strategy %q does not support weights", s.Name())
		}
		pw := make(map[placement.ServerID]float64, len(weights))
		for id, w := range weights {
			pw[placement.ServerID(id)] = w
		}
		return rw.SetWeights(pw)
	})
}

// Weights returns the current per-server capacity weights of a
// weight-aware strategy, or nil for strategies without capacity
// knowledge.
func (b *Balancer) Weights() map[ServerID]float64 {
	rw, ok := b.strategy().(placement.Reweigher)
	if !ok {
		return nil
	}
	pw := rw.Weights()
	out := make(map[ServerID]float64, len(pw))
	for id, w := range pw {
		out[ServerID(id)] = w
	}
	return out
}

// Advisory flags a server the controller considers incompetent for this
// cluster: pinned at the minimum region floor for several consecutive
// tuning rounds while others carry the load (the paper's
// administrator notification).
type Advisory struct {
	Server ServerID
	Rounds int
}

// Advisories lists servers currently flagged as incompetent. Only the
// ANU strategy produces advisories; other strategies return nil.
func (b *Balancer) Advisories() []Advisory {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.strategy().(*placement.ANU)
	if !ok {
		return nil
	}
	advs := a.Controller().Advisories()
	out := make([]Advisory, len(advs))
	for i, adv := range advs {
		out[i] = Advisory{Server: ServerID(adv.Server), Rounds: adv.Rounds}
	}
	return out
}

// Servers returns the member ids in ascending order (including failed,
// zero-share members).
func (b *Balancer) Servers() []ServerID {
	ids := b.strategy().Servers()
	out := make([]ServerID, len(ids))
	for i, id := range ids {
		out[i] = ServerID(id)
	}
	return out
}

// Shares returns each server's fraction of the key space (fractions sum
// to 1 across live servers; failed servers report 0). All fractions
// come from one placement snapshot.
func (b *Balancer) Shares() map[ServerID]float64 {
	shares := b.strategy().Shares()
	out := make(map[ServerID]float64, len(shares))
	for id, s := range shares {
		out[ServerID(id)] = s
	}
	return out
}

// Snapshot serializes the placement — the only state a delegate
// replicates to the cluster. The bytes carry the strategy's tag; its
// size is O(servers).
func (b *Balancer) Snapshot() []byte {
	return b.strategy().Encode()
}

// SharedStateSize returns len(Snapshot()).
func (b *Balancer) SharedStateSize() int {
	return b.strategy().SharedStateSize()
}

// Partitions returns the current partition count of the ANU unit
// interval, 2^(ceil(lg k)+1) for k servers, or 0 for strategies without
// partitions.
func (b *Balancer) Partitions() int {
	if a, ok := b.strategy().(*placement.ANU); ok {
		return a.Map().Partitions()
	}
	return 0
}

// K returns the number of member servers.
func (b *Balancer) K() int {
	return len(b.strategy().Servers())
}

// Render draws the ANU unit interval as an ASCII bar (one digit per
// cell for the owning server, '.' for unmapped space) — the picture of
// the paper's Figure 2, for logs and operator tooling. Strategies
// without an interval render as an empty string.
func (b *Balancer) Render(width int) string {
	if a, ok := b.strategy().(*placement.ANU); ok {
		return a.Map().Render(width)
	}
	return ""
}
