package placement

import "slices"

// Member is one server as a tuning round sees it: whether it is up, and
// its capacity weight for weight-aware strategies (0 when unknown).
type Member struct {
	ID     ServerID
	Up     bool
	Weight float64
}

// TuneRound is the one tuning round, shared by the simulator and the
// delegate: it turns a membership view into strategy input, then tunes.
//
//  1. Each up member joins: AddServer if s lacks it, Recover if its
//     share is 0. A rejoined server thus starts from an equal share —
//     the free partition half occupancy keeps for it — instead of
//     regrowing from the controller's floor.
//  2. On a Reweigher, members with Weight > 0 that s holds take their
//     weights.
//  3. Tune runs over reports followed by one Failed report per down
//     member s holds, so a silent server's region goes to the
//     survivors. An up member without a report is idle.
//
// A mutation that fails stops the round and may leave s partly
// changed, as any failed mutator may; callers tune a clone, or
// re-encode. reports is read, never written.
func TuneRound(s Strategy, members []Member, reports []Report) error {
	shares := s.Shares()
	weighted := false
	for _, m := range members {
		weighted = weighted || m.Weight > 0
		if !m.Up {
			continue
		}
		if !s.Has(m.ID) {
			if err := s.AddServer(m.ID); err != nil {
				return err
			}
		} else if shares[m.ID] == 0 {
			if err := s.Recover(m.ID); err != nil {
				return err
			}
		}
	}
	if weighted {
		if rw, ok := s.(Reweigher); ok {
			weights := make(map[ServerID]float64)
			for _, m := range members {
				if m.Weight > 0 && s.Has(m.ID) {
					weights[m.ID] = m.Weight
				}
			}
			if len(weights) > 0 {
				if err := rw.SetWeights(weights); err != nil {
					return err
				}
			}
		}
	}
	rs := slices.Clip(reports) // an append copies rather than writing past len
	for _, m := range members {
		if !m.Up && s.Has(m.ID) {
			rs = append(rs, Report{Server: m.ID, Failed: true})
		}
	}
	_, err := s.Tune(rs)
	return err
}
