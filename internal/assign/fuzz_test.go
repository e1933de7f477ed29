package assign

import (
	"encoding/binary"
	"slices"
	"testing"
)

// refMeanLatency is MeanLatency as it was before the search evaluated
// candidates into a reused buffer: a fresh loads slice per call.
func refMeanLatency(items []Item, bins []Bin, a Assignment) float64 {
	loads := make([]float64, len(bins))
	for i, b := range a {
		if b >= 0 {
			loads[b] += items[i].Load
		}
	}
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

// refLocalSearch is LocalSearch over refMeanLatency.
func refLocalSearch(items []Item, bins []Bin, a Assignment, maxRounds int) (Assignment, int) {
	if len(items) == 0 || len(bins) == 0 {
		return a, 0
	}
	steps := 0
	cur := refMeanLatency(items, bins, a)
	for round := 0; round < maxRounds; round++ {
		improved := false
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
				if v := refMeanLatency(items, bins, a); v < cur-1e-15 {
					cur = v
					home = b
					improved = true
					steps++
				} else {
					a[i] = home
				}
			}
		}
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if a[i] < 0 || a[j] < 0 || a[i] == a[j] {
					continue
				}
				a[i], a[j] = a[j], a[i]
				if v := refMeanLatency(items, bins, a); v < cur-1e-15 {
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

// FuzzLocalSearch checks LocalSearch against the per-candidate
// allocating search it replaced (same assignment, same step count) and
// the fixed-point property the policies' settled check relies on: a
// call that takes no step returns its seed, and a second call on that
// output returns it again with no step. Item loads come from two bytes
// each, in thousandths so that sums round and their order shows in the
// bits; bin capacities from one byte each (0 gives a zero-capacity
// bin), and seed entries from one byte each (-1 leaves the item
// unassigned).
func FuzzLocalSearch(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{2, 2}, []byte{1, 1, 1, 1}, uint8(10))
	f.Add([]byte{1, 0, 2, 0, 3, 0}, []byte{0, 5, 9}, []byte{0, 2, 3}, uint8(20))
	f.Add([]byte{0xff, 0xff, 0x10, 0, 0, 0}, []byte{1, 3, 5, 7, 9}, []byte{5, 4, 3}, uint8(1))
	f.Add([]byte{}, []byte{1}, []byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, loadBytes, capBytes, seedBytes []byte, maxRounds uint8) {
		items := make([]Item, min(len(loadBytes)/2, 24))
		for i := range items {
			items[i] = Item{ID: i, Load: float64(binary.LittleEndian.Uint16(loadBytes[2*i:])) / 1000}
		}
		bins := make([]Bin, min(len(capBytes), 8))
		for b := range bins {
			bins[b] = Bin{ID: b, Capacity: float64(capBytes[b]) / 16}
		}
		seed := make(Assignment, len(items))
		for i := range seed {
			seed[i] = -1
			if len(seedBytes) > 0 && len(bins) > 0 {
				seed[i] = int(seedBytes[i%len(seedBytes)])%(len(bins)+1) - 1
			}
		}
		rounds := int(maxRounds%32) + 1

		want, wantSteps := refLocalSearch(items, bins, slices.Clone(seed), rounds)
		got, steps := LocalSearch(items, bins, slices.Clone(seed), rounds)
		if !slices.Equal(got, want) || steps != wantSteps {
			t.Fatalf("LocalSearch = %v in %d steps, reference %v in %d", got, steps, want, wantSteps)
		}
		if steps != 0 {
			return
		}
		if !slices.Equal(got, seed) {
			t.Fatalf("zero-step search moved its seed: %v -> %v", seed, got)
		}
		again, steps2 := LocalSearch(items, bins, slices.Clone(got), rounds)
		if !slices.Equal(again, got) || steps2 != 0 {
			t.Fatalf("settled assignment %v searched again to %v in %d steps", got, again, steps2)
		}
	})
}
