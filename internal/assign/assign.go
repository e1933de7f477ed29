// Package assign solves the load-to-server mapping problem the paper's
// dynamic-prescient and virtual-processor systems rely on: given items
// with known offered load (file sets or virtual processors) and bins
// with known capacity (server speeds), find an assignment that minimizes
// predicted average request latency.
//
// The paper describes prescient as "identifying the permutation of file
// sets onto servers that minimizes average latency" but does not name an
// algorithm; exhaustive search is infeasible even at 50 items x 5 bins.
// We use the classic construction for makespan-like objectives —
// longest-processing-time greedy seeded placement followed by
// steepest-descent local search over single-item moves and pairwise
// swaps — which for these problem sizes reaches the proportional split
// the paper's prescient curves display.
package assign

import (
	"fmt"
	"math"
	"sort"
)

// Item is a unit of assignable load (a file set or a virtual
// processor).
type Item struct {
	// ID is the caller's identifier, carried through untouched.
	ID int
	// Load is the offered load in unit-speed work seconds per second.
	Load float64
}

// Bin is an assignment target (a server).
type Bin struct {
	// ID is the caller's identifier.
	ID int
	// Capacity is the service capacity in unit-speed work seconds per
	// second (the paper's speed factors 1, 3, 5, 7, 9).
	Capacity float64
}

// Assignment maps item index -> bin index. A value of -1 means
// unassigned (only possible when there are no usable bins).
type Assignment []int

// overloadPenalty dominates the objective when a bin is driven past
// capacity, so the search always prefers feasible assignments.
const overloadPenalty = 1e9

// MeanLatency predicts the request-weighted average latency of an
// assignment using an M/M/1-style delay model: a bin loaded to rho of
// its capacity serves with latency proportional to 1/(capacity - load),
// and each bin contributes in proportion to the load it carries.
// Overloaded bins incur a large linear penalty instead of infinity so
// the search surface stays ordered.
func MeanLatency(items []Item, bins []Bin, a Assignment) float64 {
	return meanLatency(items, bins, a, make([]float64, len(bins)))
}

// meanLatency is MeanLatency summing into the caller's loads buffer
// (len(bins) long), so a search can evaluate every candidate without
// allocating.
func meanLatency(items []Item, bins []Bin, a Assignment, loads []float64) float64 {
	sumLoads(items, a, loads)
	var num, den float64
	for b, load := range loads {
		if load == 0 {
			continue
		}
		den += load
		cap_ := bins[b].Capacity
		if load >= cap_ {
			num += load * (overloadPenalty * (1 + load - cap_))
			continue
		}
		num += load / (cap_ - load)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// binLoads sums assigned load per bin.
func binLoads(items []Item, bins []Bin, a Assignment) []float64 {
	loads := make([]float64, len(bins))
	sumLoads(items, a, loads)
	return loads
}

// sumLoads overwrites loads with the assigned load per bin, summing in
// item order so every caller gets the same float bits.
func sumLoads(items []Item, a Assignment, loads []float64) {
	clear(loads)
	for i, b := range a {
		if b >= 0 {
			loads[b] += items[i].Load
		}
	}
}

// Greedy produces the LPT seed: items in descending load order, each
// placed in the bin that minimizes the resulting normalized load
// (load/capacity). Bins with zero capacity never receive items.
func Greedy(items []Item, bins []Bin) Assignment {
	a := make(Assignment, len(items))
	for i := range a {
		a[i] = -1
	}
	usable := false
	for _, b := range bins {
		if b.Capacity > 0 {
			usable = true
			break
		}
	}
	if !usable {
		return a
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ix, iy := items[order[x]], items[order[y]]
		if ix.Load != iy.Load {
			return ix.Load > iy.Load
		}
		return order[x] < order[y] // deterministic tie-break
	})
	loads := make([]float64, len(bins))
	for _, i := range order {
		best, bestRho := -1, math.Inf(1)
		for b := range bins {
			if bins[b].Capacity <= 0 {
				continue
			}
			rho := (loads[b] + items[i].Load) / bins[b].Capacity
			if rho < bestRho {
				best, bestRho = b, rho
			}
		}
		a[i] = best
		loads[best] += items[i].Load
	}
	return a
}

// LocalSearch improves an assignment by steepest-descent over two
// neighbourhoods — moving one item to another bin and swapping the bins
// of two items — until no improving step exists or maxRounds passes
// complete. It returns the improved assignment (the input is modified in
// place) and the number of improving steps taken. It is a pure function
// of its arguments: a call that takes no step returns its seed
// unchanged, so the same items, bins and seed always give that seed
// back. Every candidate is evaluated into one loads buffer, with the
// same float bits MeanLatency gives.
func LocalSearch(items []Item, bins []Bin, a Assignment, maxRounds int) (Assignment, int) {
	if len(items) == 0 || len(bins) == 0 {
		return a, 0
	}
	loads := make([]float64, len(bins))
	steps := 0
	cur := meanLatency(items, bins, a, loads)
	for round := 0; round < maxRounds; round++ {
		improved := false
		// Single-item moves.
		for i := range items {
			if a[i] < 0 {
				continue
			}
			home := a[i]
			for b := range bins {
				if b == home || bins[b].Capacity <= 0 {
					continue
				}
				a[i] = b
				if v := meanLatency(items, bins, a, loads); v < cur-1e-15 {
					cur = v
					home = b
					improved = true
					steps++
				} else {
					a[i] = home
				}
			}
		}
		// Pairwise swaps.
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if a[i] < 0 || a[j] < 0 || a[i] == a[j] {
					continue
				}
				a[i], a[j] = a[j], a[i]
				if v := meanLatency(items, bins, a, loads); v < cur-1e-15 {
					cur = v
					improved = true
					steps++
				} else {
					a[i], a[j] = a[j], a[i]
				}
			}
		}
		if !improved {
			break
		}
	}
	return a, steps
}

// Optimize runs Greedy then LocalSearch with a round budget suited to
// the paper's problem sizes (tens of items, a handful of bins).
func Optimize(items []Item, bins []Bin) Assignment {
	a := Greedy(items, bins)
	a, _ = LocalSearch(items, bins, a, 20)
	return a
}

// Validate checks an assignment's shape: one entry per item, bin
// indices in range, and no item assigned to a zero-capacity bin.
func Validate(items []Item, bins []Bin, a Assignment) error {
	if len(a) != len(items) {
		return fmt.Errorf("assign: %d assignments for %d items", len(a), len(items))
	}
	for i, b := range a {
		if b == -1 {
			continue
		}
		if b < 0 || b >= len(bins) {
			return fmt.Errorf("assign: item %d assigned to bin %d of %d", i, b, len(bins))
		}
		if bins[b].Capacity <= 0 {
			return fmt.Errorf("assign: item %d assigned to zero-capacity bin %d", i, b)
		}
	}
	return nil
}

// Utilizations returns per-bin load/capacity ratios (NaN for
// zero-capacity bins carrying no load, +Inf if they carry load).
func Utilizations(items []Item, bins []Bin, a Assignment) []float64 {
	loads := binLoads(items, bins, a)
	out := make([]float64, len(bins))
	for b := range bins {
		switch {
		case bins[b].Capacity > 0:
			out[b] = loads[b] / bins[b].Capacity
		case loads[b] > 0:
			out[b] = math.Inf(1)
		default:
			out[b] = math.NaN()
		}
	}
	return out
}
