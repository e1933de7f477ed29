package anurand

import (
	"fmt"
	"strings"
	"testing"
)

// Satellite coverage: Tuning/Options validation and Balancer edge cases
// (empty/short LookupBatch, removing the last live server, truncated
// Restore snapshots), plus the strategy selection surface.

func TestTuningValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		field string
		t     Tuning
	}{
		{"Gamma", Tuning{Gamma: -0.2}},
		{"MaxStep", Tuning{MaxStep: -1.4}},
		{"MaxShrink", Tuning{MaxShrink: -2}},
		{"DeadBand", Tuning{DeadBand: -0.05}},
		{"MinWeight", Tuning{MinWeight: -0.001}},
		{"Smoothing", Tuning{Smoothing: -0.3}},
	}
	for _, c := range cases {
		_, err := NewWithOptions([]ServerID{0, 1}, Options{Tuning: c.t})
		if err == nil {
			t.Errorf("negative %s accepted by NewWithOptions", c.field)
			continue
		}
		if !strings.Contains(err.Error(), "Tuning."+c.field) {
			t.Errorf("negative %s error %q does not name the field", c.field, err)
		}
		if !strings.Contains(err.Error(), "default") {
			t.Errorf("negative %s error %q does not mention the zero-means-default rule", c.field, err)
		}
		// Restore validates the same way, before touching the snapshot.
		good, err2 := New([]ServerID{0, 1})
		if err2 != nil {
			t.Fatal(err2)
		}
		if _, err2 = Restore(good.Snapshot(), Options{Tuning: c.t}); err2 == nil {
			t.Errorf("negative %s accepted by Restore", c.field)
		}
	}
}

func TestLookupBatchEmptyKeys(t *testing.T) {
	b, err := New([]ServerID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.LookupBatch(nil, nil); got != 0 {
		t.Fatalf("LookupBatch(nil, nil) = %d", got)
	}
	// Extra owner capacity is fine and untouched slots stay as-is.
	owners := []ServerID{42, 42, 42}
	if got := b.LookupBatch([]string{"k"}, owners); got != 1 {
		t.Fatalf("LookupBatch resolved %d of 1", got)
	}
	if owners[1] != 42 || owners[2] != 42 {
		t.Fatalf("LookupBatch wrote past the keys: %v", owners)
	}
}

// TestLookupBatchMatchesLookup holds LookupBatch, which hands the
// caller's owners to the strategy's batch path, to Lookup key for key on
// every strategy: with one member failed, then with every member failed
// (NoOwner throughout). It also pins the batch path at zero allocations
// for lengths that end mid-chunk.
func TestLookupBatchMatchesLookup(t *testing.T) {
	keys := make([]string, 257)
	for i := range keys {
		keys[i] = fmt.Sprintf("vol%02d/f%08x.dat", i%64, i*2654435761)
	}
	keys[7] = ""
	owners := make([]ServerID, len(keys))
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			b, err := NewWithOptions([]ServerID{0, 1, 2, 3, 4, 5}, Options{Strategy: name})
			if err != nil {
				t.Fatal(err)
			}
			check := func(live bool) {
				t.Helper()
				resolved := b.LookupBatch(keys, owners)
				want := 0
				for i, key := range keys {
					id, ok := b.Lookup(key)
					if !ok {
						id = NoOwner
					} else {
						want++
					}
					if owners[i] != id {
						t.Fatalf("key %q: LookupBatch owner %d, Lookup %d", key, owners[i], id)
					}
				}
				if resolved != want || (want == len(keys)) != live {
					t.Fatalf("LookupBatch resolved %d keys, Lookup %d of %d (live members: %v)", resolved, want, len(keys), live)
				}
			}
			if err := b.Fail(2); err != nil {
				t.Fatal(err)
			}
			check(true)
			for _, size := range []int{1, 3, 5, 7, 9, 63, 65, 255, 257} {
				if n := testing.AllocsPerRun(50, func() { b.LookupBatch(keys[:size], owners) }); n != 0 {
					t.Errorf("LookupBatch allocated %g times per %d-key batch, want 0", n, size)
				}
			}
			for _, id := range []ServerID{0, 1, 3, 4, 5} {
				if err := b.Fail(id); err != nil {
					t.Fatal(err)
				}
			}
			check(false)
		})
	}
}

func TestLookupBatchShortOwnersPanics(t *testing.T) {
	b, err := New([]ServerID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LookupBatch with short owners did not panic")
		}
	}()
	b.LookupBatch([]string{"a", "b"}, make([]ServerID, 1))
}

func TestRemoveLastLiveServer(t *testing.T) {
	b, err := New([]ServerID{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RemoveServer(7); err != nil {
		t.Fatalf("removing the last server: %v", err)
	}
	if got := b.K(); got != 0 {
		t.Fatalf("K = %d after removing the only server", got)
	}
	if _, ok := b.Lookup("orphan"); ok {
		t.Fatal("Lookup resolved against an empty cluster")
	}
	owners := make([]ServerID, 2)
	if got := b.LookupBatch([]string{"a", "b"}, owners); got != 0 {
		t.Fatalf("LookupBatch resolved %d keys against an empty cluster", got)
	}
	for i, o := range owners {
		if o != NoOwner {
			t.Fatalf("owners[%d] = %d, want NoOwner", i, o)
		}
	}
	// The chord ring refuses instead: a ring cannot exist with no nodes.
	c, err := NewWithOptions([]ServerID{3}, Options{Strategy: "chord"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveServer(3); err == nil {
		t.Fatal("chord strategy removed its last node")
	}
	// A failed mutation publishes nothing: the member is still there.
	if got := c.K(); got != 1 {
		t.Fatalf("failed RemoveServer changed K to %d", got)
	}
}

func TestRestoreTruncatedSnapshot(t *testing.T) {
	for _, strategy := range []string{"", "chord-bounded"} {
		b, err := NewWithOptions([]ServerID{0, 1, 2, 3}, Options{Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		snap := b.Snapshot()
		for _, cut := range []int{0, 1, 4, len(snap) / 2, len(snap) - 1} {
			if _, err := Restore(snap[:cut], Options{}); err == nil {
				t.Errorf("strategy %q: truncated snapshot of %d/%d bytes restored", strategy, cut, len(snap))
			}
		}
		if _, err := Restore(snap, Options{}); err != nil {
			t.Errorf("strategy %q: intact snapshot rejected: %v", strategy, err)
		}
	}
}

func TestBalancerStrategySelection(t *testing.T) {
	b, err := NewWithOptions([]ServerID{0, 1, 2}, Options{Strategy: "chord-bounded", LoadBound: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Strategy(); got != "chord-bounded" {
		t.Fatalf("Strategy() = %q", got)
	}
	// Non-ANU strategies have no interval machinery but keep the full
	// lookup/tune/snapshot surface.
	if b.Partitions() != 0 || b.Render(10) != "" || b.Advisories() != nil {
		t.Fatal("chord strategy leaked ANU-only surface")
	}
	if _, ok := b.Lookup("key"); !ok {
		t.Fatal("chord lookup failed")
	}
	if changed, err := b.Tune([]Report{
		{Server: 0, Requests: 9000, LatencySeconds: 1},
		{Server: 1, Requests: 100, LatencySeconds: 1},
		{Server: 2, Requests: 100, LatencySeconds: 1},
	}); err != nil || !changed {
		t.Fatalf("Tune = (%v, %v)", changed, err)
	}
	// Snapshots round-trip with the tag; restoring under a mismatched
	// strategy assertion fails.
	r, err := Restore(b.Snapshot(), Options{Strategy: "chord-bounded"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Strategy() != "chord-bounded" {
		t.Fatalf("restored strategy %q", r.Strategy())
	}
	if _, err := Restore(b.Snapshot(), Options{Strategy: "anu"}); err == nil {
		t.Fatal("chord snapshot restored under an ANU assertion")
	}
	// Unknown strategy names error up front.
	if _, err := NewWithOptions([]ServerID{0}, Options{Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// The registry surface lists the built-ins.
	names := Strategies()
	for _, want := range []string{"anu", "chord", "chord-bounded"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Strategies() = %v missing %q", names, want)
		}
	}
}
