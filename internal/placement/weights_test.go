package placement

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// --- registry hygiene (names must round-trip the container header) ---

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegisterRejectsBadNames(t *testing.T) {
	okFactory := Factory{
		New:    func(servers []ServerID, opts Options) (Strategy, error) { return nil, nil },
		Decode: func(data []byte, opts Options, prev Strategy) (Strategy, error) { return nil, nil },
	}
	bad := []string{
		"",
		strings.Repeat("x", 256),
		"has space",
		"tab\tname",
		"new\nline",
		"nul\x00byte",
		"utf8-héllo",
		"\x7fdel",
	}
	for _, name := range bad {
		mustPanic(t, fmt.Sprintf("Register(%q)", name), func() { Register(name, okFactory) })
		mustPanic(t, fmt.Sprintf("EncodeTagged(%q)", name), func() { EncodeTagged(name, nil) })
	}
	mustPanic(t, "duplicate Register", func() { Register(StrategyChord, okFactory) })
	mustPanic(t, "Register without New/Decode", func() { Register("half-registered", Factory{New: okFactory.New}) })
}

func TestDecodeUnknownTag(t *testing.T) {
	enc := EncodeTagged("never-registered", []byte{1, 2, 3})
	if _, err := Decode(enc, Options{}); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("Decode of unknown tag: %v", err)
	}
	if _, err := New("never-registered", servers(3), Options{}); err == nil {
		t.Fatal("New of unknown tag succeeded")
	}
}

// --- construction-time weight validation ---

func weightedNames() []string {
	return []string{StrategyRendezvous, StrategyWeightedStatic, StrategyPowerOfD}
}

func TestWeightValidation(t *testing.T) {
	for _, name := range weightedNames() {
		t.Run(name, func(t *testing.T) {
			cases := []map[ServerID]float64{
				{9: 1},                  // weight for non-member
				{0: 0},                  // zero
				{0: -1},                 // negative
				{0: math.NaN()},         // NaN
				{0: math.Inf(1)},        // +Inf
				{1: 4, 2: math.Inf(-1)}, // -Inf among valid entries
			}
			for _, w := range cases {
				if _, err := New(name, servers(4), Options{HashSeed: 1, Weights: w}); err == nil {
					t.Errorf("New accepted weights %v", w)
				}
			}
			s, err := New(name, servers(4), Options{HashSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			rw := s.(Reweigher)
			for _, w := range cases {
				if err := rw.SetWeights(w); err == nil {
					t.Errorf("SetWeights accepted %v", w)
				}
			}
			// A failed partial update must leave the weights untouched.
			if err := rw.SetWeights(map[ServerID]float64{0: 5, 9: 2}); err == nil {
				t.Fatal("SetWeights accepted an unknown member")
			}
			if got := rw.Weights()[0]; got != 1 {
				t.Fatalf("failed SetWeights mutated weight: %g", got)
			}
		})
	}
}

// --- weight-proportional behavior ---

func TestWeightedSharesProportional(t *testing.T) {
	weights := map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	total := 25.0
	for _, name := range weightedNames() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, servers(5), Options{HashSeed: 1, Weights: weights})
			if err != nil {
				t.Fatal(err)
			}
			for id, w := range weights {
				if got, want := s.Shares()[id], w/total; math.Abs(got-want) > 1e-12 {
					t.Errorf("share[%d] = %g, want %g", id, got, want)
				}
			}
		})
	}
}

// TestWeightedLookupTracksWeights draws many keys and demands the
// empirical key distribution follow the configured capacities for the
// two statically weighted schemes (power-of-d placement additionally
// depends on load state, so its distribution is not purely weights).
func TestWeightedLookupTracksWeights(t *testing.T) {
	weights := map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}
	total := 25.0
	const keys = 40000
	for _, name := range []string{StrategyRendezvous, StrategyWeightedStatic} {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, servers(5), Options{HashSeed: 1, Weights: weights})
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[ServerID]int)
			for i := 0; i < keys; i++ {
				id, ok := Lookup(s, fmt.Sprintf("/vol%d/user%d/file%d", i%7, i%31, i))
				if !ok {
					t.Fatal("lookup failed with all servers live")
				}
				counts[id]++
			}
			for id, w := range weights {
				got := float64(counts[id]) / keys
				want := w / total
				if math.Abs(got-want) > 0.015 {
					t.Errorf("server %d got %.3f of keys, want %.3f (weights not honored)", id, got, want)
				}
			}
		})
	}
}

// TestRendezvousMinimalDisruption checks HRW's defining property: a
// failure moves ONLY the failed server's keys.
func TestRendezvousMinimalDisruption(t *testing.T) {
	s := conformanceNew(t, StrategyRendezvous, 6)
	keys := conformanceKeys()
	before := make([]ServerID, len(keys))
	s.LookupBatch(keys, before)
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	after := make([]ServerID, len(keys))
	s.LookupBatch(keys, after)
	for i := range keys {
		if before[i] != 3 && after[i] != before[i] {
			t.Fatalf("key %q moved %d -> %d though its owner never failed", keys[i], before[i], after[i])
		}
		if after[i] == 3 {
			t.Fatalf("key %q still on failed server", keys[i])
		}
	}
	// Recovery restores the exact original placement.
	if err := s.Recover(3); err != nil {
		t.Fatal(err)
	}
	restored := make([]ServerID, len(keys))
	s.LookupBatch(keys, restored)
	for i := range keys {
		if restored[i] != before[i] {
			t.Fatalf("key %q not restored after recovery: %d -> %d", keys[i], before[i], restored[i])
		}
	}
}

// TestWeightedStaticStability checks the static scheme's defining
// property: keys owned by live servers never move on a failure (static
// boundaries), and only the failed server's keys fail over.
func TestWeightedStaticStability(t *testing.T) {
	s := conformanceNew(t, StrategyWeightedStatic, 6)
	keys := conformanceKeys()
	before := make([]ServerID, len(keys))
	s.LookupBatch(keys, before)
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	after := make([]ServerID, len(keys))
	s.LookupBatch(keys, after)
	for i := range keys {
		if before[i] != 1 && after[i] != before[i] {
			t.Fatalf("key %q moved %d -> %d though its owner never failed", keys[i], before[i], after[i])
		}
		if after[i] == 1 {
			t.Fatalf("key %q still on failed server", keys[i])
		}
	}
}

// TestPowerOfDSteersByLoad reports heavy load on one sampled server and
// expects the sampler to shift keys toward the lighter choices.
func TestPowerOfDSteersByLoad(t *testing.T) {
	s, err := New(StrategyPowerOfD, servers(4), Options{HashSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	count := func() map[ServerID]int {
		c := make(map[ServerID]int)
		for i := 0; i < 4000; i++ {
			id, ok := Lookup(s, fmt.Sprintf("key-%d", i))
			if !ok {
				t.Fatal("lookup failed")
			}
			c[id]++
		}
		return c
	}
	cold := count()
	// Server 0 reports heavy traffic; the rest stay light.
	if _, err := s.Tune([]Report{
		{Server: 0, Requests: 100000, Latency: 5},
		{Server: 1, Requests: 10, Latency: 0.1},
		{Server: 2, Requests: 10, Latency: 0.1},
		{Server: 3, Requests: 10, Latency: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	hot := count()
	if hot[0] >= cold[0] {
		t.Fatalf("server 0 share did not shrink under load: %d -> %d keys", cold[0], hot[0])
	}
}

func TestPowerOfDChoicesValidation(t *testing.T) {
	if _, err := New(StrategyPowerOfD, servers(3), Options{Choices: MaxChoices + 1}); err == nil {
		t.Error("New accepted Choices above MaxChoices")
	}
	if _, err := New(StrategyPowerOfD, servers(3), Options{Choices: -1}); err == nil {
		t.Error("New accepted negative Choices")
	}
	s, err := New(StrategyPowerOfD, servers(3), Options{Choices: 1})
	if err != nil {
		t.Fatal(err)
	}
	// d=1 is pure weighted random: still a valid sampler.
	if _, ok := Lookup(s, "k"); !ok {
		t.Fatal("d=1 lookup failed")
	}
}

// TestWeightsSurviveEncodeDecode is the journal half of the acceptance
// criterion: weights set at construction or through SetWeights come
// back bit-exact from the snapshot bytes, with no help from Options.
func TestWeightsSurviveEncodeDecode(t *testing.T) {
	weights := map[ServerID]float64{0: 1.5, 1: 3.25, 2: 5, 3: 0.125}
	for _, name := range weightedNames() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, servers(4), Options{HashSeed: 11, Weights: weights})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.(Reweigher).SetWeights(map[ServerID]float64{2: 6.75}); err != nil {
				t.Fatal(err)
			}
			// Decode with zero Options: every weight must come from the bytes.
			dec, err := Decode(s.Encode(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := dec.(Reweigher).Weights()
			want := map[ServerID]float64{0: 1.5, 1: 3.25, 2: 6.75, 3: 0.125}
			for id, w := range want {
				if got[id] != w {
					t.Errorf("decoded weight[%d] = %g, want %g", id, got[id], w)
				}
			}
		})
	}
}

// TestWeightedDecodeRejectsCorruption drives the strict decoders over
// targeted corruptions of a valid snapshot.
func TestWeightedDecodeRejectsCorruption(t *testing.T) {
	for _, name := range weightedNames() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 4)
			enc := s.Encode()
			if _, err := Decode(enc[:len(enc)-3], Options{}); err == nil {
				t.Error("truncated snapshot decoded")
			}
			if _, err := Decode(append(append([]byte(nil), enc...), 0xff), Options{}); err == nil {
				t.Error("snapshot with trailing bytes decoded")
			}
			// Flip the first member's failed flag to an invalid value.
			// Layout: container header (5+name), seed (8, power-of-d adds
			// 4 for d), k (4), id (4), then the flag byte.
			flagOff := 5 + len(name) + 8 + 4 + 4
			if name == StrategyPowerOfD {
				flagOff += 4
			}
			bad := append([]byte(nil), enc...)
			bad[flagOff] = 7
			if _, err := Decode(bad, Options{}); err == nil {
				t.Error("snapshot with invalid failed flag decoded")
			}
		})
	}
}
