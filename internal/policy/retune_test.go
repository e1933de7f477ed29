package policy

import (
	"slices"
	"sort"
	"testing"

	"anurand/internal/assign"
	"anurand/internal/hashx"
)

// fullWarmSearch is the warm-started re-optimization without the
// settled check: bins rebuilt from env, the seed from prev, and the
// whole search run every time.
func fullWarmSearch(prev []ServerID, loads []float64, env *Env) []ServerID {
	servers := append([]ServerInfo(nil), env.Servers...)
	sort.Slice(servers, func(i, j int) bool { return servers[i].ID < servers[j].ID })
	var bins []assign.Bin
	var ids []ServerID
	for _, s := range servers {
		if s.Up && s.Speed > 0 {
			bins = append(bins, assign.Bin{ID: int(s.ID), Capacity: s.Speed})
			ids = append(ids, s.ID)
		}
	}
	out := make([]ServerID, len(prev))
	if len(bins) == 0 {
		for i := range out {
			out[i] = NoServer
		}
		return out
	}
	items := make([]assign.Item, len(loads))
	for i, l := range loads {
		items[i] = assign.Item{ID: i, Load: l}
	}
	binOf := make(map[ServerID]int, len(ids))
	for b, id := range ids {
		binOf[id] = b
	}
	seed := make(assign.Assignment, len(prev))
	warm := true
	for i, id := range prev {
		b, ok := binOf[id]
		if !ok {
			warm = false
			break
		}
		seed[i] = b
	}
	var a assign.Assignment
	if warm {
		a, _ = assign.LocalSearch(items, bins, seed, 20)
	} else {
		a = assign.Optimize(items, bins)
	}
	for i, b := range a {
		if b < 0 {
			out[i] = NoServer
		} else {
			out[i] = ids[b]
		}
	}
	return out
}

// TestSettledRetuneMatchesFullSearch drives prescient and vp through
// rounds of constant loads, a failure, a recovery, a speed change and a
// load change. After every round the table must equal the one a full
// warm-started search from the previous table gives, and once the
// constant rounds have settled the search a retune must not allocate.
func TestSettledRetuneMatchesFullSearch(t *testing.T) {
	fs := testFileSets(60)
	p, err := NewPrescient(fs)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVirtualProcessor(hashx.NewFamily(1), fs, 20)
	if err != nil {
		t.Fatal(err)
	}
	vpLoads := func(env *Env) []float64 {
		loads := make([]float64, v.NumVP())
		for f, vp := range v.fsToVP {
			loads[vp] += env.FileSetLoads[f]
		}
		return loads
	}
	cases := []struct {
		name   string
		placer Placer
		table  []ServerID
		search *warmSearch
		loads  func(*Env) []float64
	}{
		{"prescient", p, p.table, &p.search, func(env *Env) []float64 { return env.FileSetLoads }},
		{"vp", v, v.vpOwner, &v.search, vpLoads},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := paperEnv(fs)
			round := func(step string) {
				t.Helper()
				prev := slices.Clone(c.table)
				if err := c.placer.Retune(env); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if want := fullWarmSearch(prev, c.loads(env), env); !slices.Equal(c.table, want) {
					t.Fatalf("%s: table %v, full search %v", step, c.table, want)
				}
			}
			for i := 0; i < 6; i++ {
				round("constant")
			}
			if !c.search.settled {
				t.Fatal("six rounds of constant loads did not settle the search")
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := c.placer.Retune(env); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("settled retune allocates %.0f times", allocs)
			}
			steps := []struct {
				name   string
				change func()
			}{
				{"server 3 down", func() { env.Servers[3].Up = false }},
				{"server 3 up", func() { env.Servers[3].Up = true }},
				{"server 4 slows", func() { env.Servers[4].Speed = 6 }},
				{"load change", func() { env.FileSetLoads[7] *= 3 }},
			}
			for _, s := range steps {
				before := slices.Clone(c.table)
				s.change()
				round(s.name)
				for i := 0; i < 3; i++ {
					round(s.name + ", then constant")
				}
				if slices.Equal(before, c.table) {
					t.Errorf("%s moved nothing", s.name)
				}
			}
		})
	}
}
