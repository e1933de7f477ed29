package anu

import (
	"fmt"
	"math"
	"sort"
)

// SetLengths retunes the mapped-region lengths to the given targets,
// moving the minimum measure of the interval: shrinking servers release
// space from the tail of their regions first (their partial partition,
// then their most recently acquired full partitions) and growing servers
// extend their partial before claiming free partitions, so untouched
// space keeps its owner and file-set caches stay warm (load locality,
// Section 4 of the paper).
//
// The targets must cover exactly the servers in the map and sum to Half
// (or to zero, the all-failed state). Otherwise the map is left
// unchanged and an error is returned.
func (m *Map) SetLengths(lengths map[ServerID]Ticks) error {
	if len(lengths) != len(m.regions) {
		return fmt.Errorf("anu: SetLengths: got %d lengths for %d servers", len(lengths), len(m.regions))
	}
	var sum Ticks
	for id, l := range lengths {
		if _, ok := m.regions[id]; !ok {
			return fmt.Errorf("anu: SetLengths: unknown server %d", id)
		}
		sum += l
	}
	if sum != Half && sum != 0 {
		return fmt.Errorf("anu: SetLengths: lengths sum to %d, want %d (half occupancy)", sum, Half)
	}

	// Shrink phase: release space before anyone grows, so the free
	// pool is maximal when claims happen.
	m.freed = m.freed[:0]
	for _, id := range m.order {
		r := m.regions[id]
		if target := lengths[id]; target < r.length {
			m.release(r, r.length-target)
		}
	}
	// Grow phase.
	for _, id := range m.order {
		r := m.regions[id]
		if target := lengths[id]; target > r.length {
			m.acquire(r, target-r.length)
		}
	}
	m.total = sum
	return nil
}

// SetWeights retunes region lengths proportionally to the given
// non-negative weights (normalized to half occupancy with exact tick
// accounting). A zero weight empties the server's region; all-zero
// weights are an error unless the map is already empty.
func (m *Map) SetWeights(weights map[ServerID]float64) error {
	lengths, err := LengthsFromWeights(weights, Half)
	if err != nil {
		return fmt.Errorf("anu: SetWeights: %w", err)
	}
	return m.SetLengths(lengths)
}

// LengthsFromWeights converts float weights into tick lengths summing
// exactly to total, using floor-then-distribute rounding so no server is
// off by more than a tick per adjustment round.
func LengthsFromWeights(weights map[ServerID]float64, total Ticks) (map[ServerID]Ticks, error) {
	ids := make([]ServerID, 0, len(weights))
	for id, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("weight for server %d is invalid: %g", id, w)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no weights")
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sumW float64
	for _, id := range ids { // in id order: a float sum depends on its order
		sumW += weights[id]
	}
	if sumW == 0 {
		return nil, fmt.Errorf("all weights are zero")
	}
	lengths := make(map[ServerID]Ticks, len(ids))
	var assigned Ticks
	for _, id := range ids {
		l := Ticks(weights[id] / sumW * float64(total))
		if l > total {
			l = total
		}
		lengths[id] = l
		assigned += l
	}
	// Float rounding leaves a small signed discrepancy; settle it one
	// tick at a time round-robin over positive-weight servers.
	for assigned != total {
		for _, id := range ids {
			if assigned == total {
				break
			}
			if assigned < total {
				if weights[id] > 0 {
					lengths[id]++
					assigned++
				}
			} else if lengths[id] > 0 {
				lengths[id]--
				assigned--
			}
		}
	}
	return lengths, nil
}

// release gives back amount ticks from the tail of r's region.
func (m *Map) release(r *region, amount Ticks) {
	w := m.Width()
	// Release the partial prefix first.
	if r.partial >= 0 && amount > 0 {
		take := r.partialLen
		if take > amount {
			take = amount
		}
		r.partialLen -= take
		r.length -= take
		amount -= take
		m.parts[r.partial].occ = r.partialLen
		if r.partialLen == 0 {
			m.freed = append(m.freed, r.partial)
			m.parts[r.partial].owner = NoServer
			r.partial = -1
		}
	}
	// Then whole partitions, most recently acquired first.
	for amount >= w && len(r.full) > 0 {
		p := r.full[len(r.full)-1]
		r.full = r.full[:len(r.full)-1]
		m.parts[p] = partInfo{owner: NoServer}
		m.freed = append(m.freed, p)
		r.length -= w
		amount -= w
	}
	// A remaining sliver converts the last full partition into the
	// (single) partial.
	if amount > 0 && len(r.full) > 0 {
		p := r.full[len(r.full)-1]
		r.full = r.full[:len(r.full)-1]
		r.partial = p
		r.partialLen = w - amount
		m.parts[p].occ = r.partialLen
		r.length -= amount
		amount = 0
	}
	if amount > 0 {
		// Caller asked to release more than the region holds; this is
		// a programming error because SetLengths validates totals.
		panic(fmt.Sprintf("anu: release: server %d short by %d ticks", r.id, amount))
	}
}

// acquire extends r's region by amount ticks from free space. Whole
// partitions are claimed first (preferring warm, just-released ones —
// see Map.freed), and only the sub-partition remainder maps virgin
// ticks via the partial prefix, minimizing collateral key movement.
func (m *Map) acquire(r *region, amount Ticks) {
	w := m.Width()
	// Claim free partitions wholly while a full width is needed.
	for amount >= w {
		p := m.takeFree(r.id)
		m.parts[p] = partInfo{owner: r.id, occ: w}
		r.full = append(r.full, p)
		r.length += w
		amount -= w
	}
	// Extend the existing partial toward a full partition.
	if r.partial >= 0 && amount > 0 {
		take := w - r.partialLen
		if take > amount {
			take = amount
		}
		r.partialLen += take
		r.length += take
		amount -= take
		m.parts[r.partial].occ = r.partialLen
		if r.partialLen == w {
			r.full = append(r.full, r.partial)
			r.partial = -1
			r.partialLen = 0
		}
	}
	// A final sliver becomes the new partial.
	if amount > 0 {
		p := m.takeFree(r.id)
		m.parts[p] = partInfo{owner: r.id, occ: amount}
		r.partial = p
		r.partialLen = amount
		r.length += amount
	}
}

// takeFree returns a free partition, preferring ones released earlier
// in the same retune (warm) and falling back to the lowest-index free
// partition. The half-occupancy invariant guarantees one exists;
// exhaustion is a bug, not a runtime condition.
func (m *Map) takeFree(for_ ServerID) int32 {
	for len(m.freed) > 0 {
		p := m.freed[0]
		m.freed = m.freed[1:]
		if m.parts[p].owner == NoServer {
			return p
		}
	}
	for i := range m.parts {
		if m.parts[i].owner == NoServer {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("anu: no free partition while growing server %d (half-occupancy invariant violated)", for_))
}

// Repartition doubles the partition count. Every partition splits in
// two; full partitions become two full halves and a partial prefix is
// re-expressed over the finer grid. No ownership measure moves and no
// hash function changes (unlike linear hashing), so repartitioning never
// relocates load. It returns an error at the resolution cap.
func (m *Map) Repartition() error {
	if m.partBits+1 > UnitBits {
		return fmt.Errorf("anu: Repartition: at resolution cap (2^%d partitions)", m.partBits)
	}
	oldParts := m.parts
	m.partBits++
	newW := m.Width()
	m.parts = make([]partInfo, len(oldParts)*2)
	for id := range m.regions {
		r := m.regions[id]
		r.full = r.full[:0]
		r.partial = -1
		r.partialLen = 0
	}
	for i := range m.parts {
		m.parts[i].owner = NoServer
	}
	for i, old := range oldParts {
		if old.owner == NoServer || old.occ == 0 {
			continue
		}
		r := m.regions[old.owner]
		lo, hi := int32(2*i), int32(2*i+1)
		switch {
		case old.occ >= 2*newW: // was full
			m.parts[lo] = partInfo{owner: old.owner, occ: newW}
			m.parts[hi] = partInfo{owner: old.owner, occ: newW}
			r.full = append(r.full, lo, hi)
		case old.occ > newW: // spills into the upper half
			m.parts[lo] = partInfo{owner: old.owner, occ: newW}
			r.full = append(r.full, lo)
			m.parts[hi] = partInfo{owner: old.owner, occ: old.occ - newW}
			r.partial = hi
			r.partialLen = old.occ - newW
		case old.occ == newW: // exactly the lower half
			m.parts[lo] = partInfo{owner: old.owner, occ: newW}
			r.full = append(r.full, lo)
		default: // a prefix of the lower half
			m.parts[lo] = partInfo{owner: old.owner, occ: old.occ}
			r.partial = lo
			r.partialLen = old.occ
		}
	}
	return nil
}

// AddServer commissions a new server: the interval is repartitioned if
// the partition count would fall below 2^(ceil(lg k)+1) for the new k,
// the newcomer receives an equal (1/k) share of the mapped half, and
// every other server scales back proportionally.
func (m *Map) AddServer(id ServerID) error {
	if id < 0 {
		return fmt.Errorf("anu: AddServer: negative server id %d", id)
	}
	if _, dup := m.regions[id]; dup {
		return fmt.Errorf("anu: AddServer: server %d already present", id)
	}
	k := len(m.regions) + 1
	for m.partBits < partitionBits(k) {
		if err := m.Repartition(); err != nil {
			return err
		}
	}
	m.regions[id] = &region{id: id, partial: -1}
	m.order = append(m.order, id)
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })

	share := Half / Ticks(k)
	return m.scaleOthersAndSet(id, share)
}

// Recover restores a failed (zero-length) server to an equal 1/k share
// of the mapped half, scaling the others back. Recovering a server with
// a nonzero region is a no-op.
func (m *Map) Recover(id ServerID) error {
	r, ok := m.regions[id]
	if !ok {
		return fmt.Errorf("anu: Recover: unknown server %d", id)
	}
	if r.length > 0 {
		return nil
	}
	live := 1
	for _, other := range m.regions {
		if other.id != id && other.length > 0 {
			live++
		}
	}
	return m.scaleOthersAndSet(id, Half/Ticks(live))
}

// scaleOthersAndSet assigns share ticks to id and rescales all other
// regions proportionally so the total stays at Half.
func (m *Map) scaleOthersAndSet(id ServerID, share Ticks) error {
	weights := make(map[ServerID]float64, len(m.regions))
	var others Ticks
	for sid, r := range m.regions {
		if sid != id {
			others += r.length
		}
	}
	if others == 0 {
		// Everyone else is empty: the newcomer takes the whole half.
		share = Half
	}
	for sid, r := range m.regions {
		switch {
		case sid == id:
			weights[sid] = float64(share)
		case others == 0:
			weights[sid] = 0
		default:
			weights[sid] = float64(r.length) * float64(Half-share) / float64(others)
		}
	}
	lengths, err := LengthsFromWeights(weights, Half)
	if err != nil {
		return err
	}
	return m.SetLengths(lengths)
}

// Fail records a server failure: its mapped region drops to zero and the
// survivors grow proportionally, preserving half occupancy. Only file
// sets previously served by the failed server move (they re-hash into
// the survivors' regions).
func (m *Map) Fail(id ServerID) error {
	r, ok := m.regions[id]
	if !ok {
		return fmt.Errorf("anu: Fail: unknown server %d", id)
	}
	if r.length == 0 {
		return nil
	}
	weights := make(map[ServerID]float64, len(m.regions))
	anyOther := false
	for sid, other := range m.regions {
		if sid == id {
			weights[sid] = 0
			continue
		}
		weights[sid] = float64(other.length)
		if other.length > 0 {
			anyOther = true
		}
	}
	if !anyOther {
		// Last live server failing empties the map.
		lengths := make(map[ServerID]Ticks, len(m.regions))
		for sid := range m.regions {
			lengths[sid] = 0
		}
		return m.SetLengths(lengths)
	}
	return m.SetWeights(weights)
}

// RemoveServer decommissions a server entirely: its load is failed over
// to the survivors and the id is forgotten. The partition count is not
// reduced (the paper never shrinks P; re-hashing is unaffected).
func (m *Map) RemoveServer(id ServerID) error {
	if _, ok := m.regions[id]; !ok {
		return fmt.Errorf("anu: RemoveServer: unknown server %d", id)
	}
	if err := m.Fail(id); err != nil {
		return err
	}
	delete(m.regions, id)
	for i, sid := range m.order {
		if sid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}
