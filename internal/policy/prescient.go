package policy

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"anurand/internal/assign"
	"anurand/internal/workload"
)

// Prescient is the dynamic-prescient upper bound: at every tuning round
// it re-optimizes the file-set-to-server assignment using perfect
// knowledge of per-file-set offered load and server capacities. It
// represents the best any load manager could do and is what ANU is
// measured against.
type Prescient struct {
	table  []ServerID
	search warmSearch
}

// NewPrescient builds the policy; the placement table is empty until the
// first Retune (the harness retunes prescient once at t=0 so it is
// balanced "from the very beginning", as in the paper).
func NewPrescient(fileSets []workload.FileSet) (*Prescient, error) {
	if len(fileSets) == 0 {
		return nil, fmt.Errorf("policy: NewPrescient: no file sets")
	}
	table := make([]ServerID, len(fileSets))
	for i := range table {
		table[i] = NoServer
	}
	return &Prescient{table: table}, nil
}

// Name implements Placer.
func (p *Prescient) Name() string { return "prescient" }

// Place implements Placer via the optimized table.
func (p *Prescient) Place(fs int) ServerID {
	if fs < 0 || fs >= len(p.table) {
		return NoServer
	}
	return p.table[fs]
}

// Retune implements Placer: a re-optimization with ground truth. The
// search is warm-started from the current table so a placement that is
// still locally optimal stays put — the optimal permutation should not
// churn when nothing changed.
func (p *Prescient) Retune(env *Env) error {
	if err := validateEnv(env, len(p.table), true); err != nil {
		return err
	}
	p.search.retune(p.table, env.FileSetLoads, env.Servers)
	return nil
}

// SharedStateSize implements Placer: a replicated table mapping every
// file set to a server (4-byte fileset index + 4-byte server id each) —
// the O(m) state the paper contrasts with ANU's O(k).
func (p *Prescient) SharedStateSize() int { return 8 * len(p.table) }

// warmSearch is the re-optimization prescient and vp share: it maps
// items with known loads onto the up servers, warm-started from the
// placer's table. assign.LocalSearch is a pure function, so once a warm
// search has taken no step, the same loads, bins and table give the
// same table back; warmSearch remembers those inputs and skips the
// search while they hold. A fail, recover, speed or load change is a
// miss and searches again. Its buffers are reused across rounds, so a
// settled round allocates nothing.
type warmSearch struct {
	items   []assign.Item // per-item loads of the last round
	servers []ServerInfo  // scratch: up servers sorted by id
	bins    []assign.Bin  // up servers of the last round, by id
	ids     []ServerID    // parallel to bins
	seed    assign.Assignment
	// settled reports that the last round's warm search took no step:
	// its items, bins and the table it left are a fixed point.
	settled bool
}

// retune re-maps table (item -> server) for the given per-item loads
// over env's up servers, leaving it untouched when the inputs equal
// those of the last settled search.
func (w *warmSearch) retune(table []ServerID, loads []float64, servers []ServerInfo) {
	same := w.setItems(loads)
	same = w.setBins(servers) && same
	if same && w.settled {
		return
	}
	w.settled = false
	if len(w.bins) == 0 {
		for i := range table {
			table[i] = NoServer
		}
		return
	}
	a, warm := w.seedFrom(table)
	steps := 0
	if warm {
		a, steps = assign.LocalSearch(w.items, w.bins, a, 20)
	} else {
		a = assign.Optimize(w.items, w.bins)
	}
	for i, b := range a {
		if b < 0 {
			table[i] = NoServer
		} else {
			table[i] = w.ids[b]
		}
	}
	w.settled = warm && steps == 0
}

// setItems stores loads as the search's items and reports whether they
// are bit-identical to the last round's.
func (w *warmSearch) setItems(loads []float64) bool {
	same := len(w.items) == len(loads)
	if !same {
		w.items = make([]assign.Item, len(loads))
		for i := range w.items {
			w.items[i].ID = i
		}
	}
	for i, l := range loads {
		if math.Float64bits(w.items[i].Load) != math.Float64bits(l) {
			w.items[i].Load = l
			same = false
		}
	}
	return same
}

// setBins stores the up servers with positive speed as optimizer bins
// in ascending id order, with the parallel id list, and reports whether
// ids and capacities are bit-identical to the last round's.
func (w *warmSearch) setBins(servers []ServerInfo) bool {
	up := w.servers[:0]
	for _, s := range servers {
		if s.Up && s.Speed > 0 {
			up = append(up, s)
		}
	}
	slices.SortFunc(up, func(a, b ServerInfo) int { return cmp.Compare(a.ID, b.ID) })
	w.servers = up
	same := len(w.bins) == len(up)
	if !same {
		w.bins = slices.Grow(w.bins[:0], len(up))[:len(up)]
		w.ids = slices.Grow(w.ids[:0], len(up))[:len(up)]
	}
	for k, s := range up {
		if w.ids[k] != s.ID || math.Float64bits(w.bins[k].Capacity) != math.Float64bits(s.Speed) {
			w.bins[k], w.ids[k] = assign.Bin{ID: int(s.ID), Capacity: s.Speed}, s.ID
			same = false
		}
	}
	return same
}

// seedFrom converts table to bin indices for a warm start. It reports
// false when some entry is not a usable bin (first round, failures,
// topology changes), and the search then starts from a fresh greedy
// seed instead.
func (w *warmSearch) seedFrom(table []ServerID) (assign.Assignment, bool) {
	w.seed = slices.Grow(w.seed[:0], len(table))[:len(table)]
	for i, id := range table {
		b, ok := slices.BinarySearch(w.ids, id)
		if !ok {
			return nil, false
		}
		w.seed[i] = b
	}
	return w.seed, true
}
