package chordring

import (
	"fmt"
	"math"
	"testing"

	"anurand/internal/hashx"
	"anurand/internal/rng"
)

func newBounded(t *testing.T, n int) *Bounded {
	t.Helper()
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	r, err := New(hashx.NewFamily(42), nodes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBounded(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoundedOwnerMatchesRingWhenIdle(t *testing.T) {
	b := newBounded(t, 8)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("fs/%d", i)
		id, probes, ok := b.Owner(key)
		if !ok || probes != 1 {
			t.Fatalf("Owner(%q) = (%d, %d, %v)", key, id, probes, ok)
		}
		if want := b.Ring().Owner(key); id != want {
			t.Fatalf("idle bounded owner %d, ring owner %d for %q", id, want, key)
		}
	}
}

func TestBoundedFailedNodeSpillsToLiveSuccessor(t *testing.T) {
	b := newBounded(t, 6)
	victim := b.Ring().Owner("hot-key")
	if err := b.SetFailed(victim, true); err != nil {
		t.Fatal(err)
	}
	id, probes, ok := b.Owner("hot-key")
	if !ok || id == victim {
		t.Fatalf("failed node still owns the key: (%d, %v)", id, ok)
	}
	if probes != 2 {
		t.Errorf("spill took %d probes, want 2", probes)
	}
	// Keys not owned by the victim are unaffected.
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k/%d", i)
		if b.Ring().Owner(key) == victim {
			continue
		}
		id, _, ok := b.Owner(key)
		if !ok || id != b.Ring().Owner(key) {
			t.Fatalf("unrelated key %q moved to %d", key, id)
		}
	}
	// Recovery restores the original placement.
	if err := b.SetFailed(victim, false); err != nil {
		t.Fatal(err)
	}
	if id, _, _ := b.Owner("hot-key"); id != victim {
		t.Fatalf("recovered node did not regain its key (owner %d, want %d)", id, victim)
	}
}

func TestBoundedAllFailed(t *testing.T) {
	b := newBounded(t, 3)
	for _, id := range b.Members() {
		if err := b.SetFailed(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := b.Owner("anything"); ok {
		t.Fatal("all-failed ring still places keys")
	}
	for id, s := range SharesOf[NodeID](b) {
		if s != 0 {
			t.Errorf("all-failed ring reports share %g for %d", s, id)
		}
	}
}

func TestBoundedShedMovesPrefixFraction(t *testing.T) {
	b := newBounded(t, 5)
	const shedFrac = 0.5
	target := NodeID(2)
	if err := b.SetShed(target, shedFrac); err != nil {
		t.Fatal(err)
	}
	var owned, kept int
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("probe/%d", i)
		if b.Ring().Owner(key) != target {
			continue
		}
		owned++
		if id, _, ok := b.Owner(key); ok && id == target {
			kept++
		}
	}
	if owned < 500 {
		t.Fatalf("target owns only %d sample keys; test underpowered", owned)
	}
	got := float64(kept) / float64(owned)
	if math.Abs(got-(1-shedFrac)) > 0.1 {
		t.Errorf("shed %.2f kept %.3f of keys, want ~%.2f", shedFrac, got, 1-shedFrac)
	}
	// Shares agree with the sampled behaviour: the target's share dropped
	// by about half relative to its unshed arc.
	unshed := newBounded(t, 5)
	before := SharesOf[NodeID](unshed)[target]
	after := SharesOf[NodeID](b)[target]
	if math.Abs(after-before*(1-shedFrac)) > 0.05 {
		t.Errorf("Shares: shed share %g, want ~%g", after, before*(1-shedFrac))
	}
}

func TestBoundedSharesSumToOne(t *testing.T) {
	b := newBounded(t, 7)
	b.SetFailed(1, true)
	b.SetShed(3, 0.25)
	b.SetShed(5, 0.75)
	var sum float64
	for _, s := range SharesOf[NodeID](b) {
		if s < 0 {
			t.Fatalf("negative share %g", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if s := SharesOf[NodeID](b)[1]; s != 0 {
		t.Errorf("failed node has share %g", s)
	}
}

func TestBoundedValidation(t *testing.T) {
	b := newBounded(t, 3)
	if err := b.SetShed(0, 1.0); err == nil {
		t.Error("SetShed(1.0) accepted")
	}
	if err := b.SetShed(0, -0.1); err == nil {
		t.Error("SetShed(-0.1) accepted")
	}
	if err := b.SetShed(0, math.NaN()); err == nil {
		t.Error("SetShed(NaN) accepted")
	}
	if err := b.SetShed(99, 0.5); err == nil {
		t.Error("SetShed on unknown node accepted")
	}
	if err := b.SetFailed(99, true); err == nil {
		t.Error("SetFailed on unknown node accepted")
	}
}

// TestApplyMatchesSetters holds the bulk update to the one-at-a-time
// setters: the same failure and shed changes, applied in one Apply or
// one by one, give identical dense state, owners and shares. The dense
// state is also checked against a direct scan of the ring.
func TestApplyMatchesSetters(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn(24)
		bulk, single := newBounded(t, n), newBounded(t, n)
		var states []NodeState
		for i := 0; i < n; i++ {
			s := NodeState{ID: NodeID(src.Intn(n))}
			switch src.Intn(3) {
			case 0:
				s.Failed = true
			case 1:
				s.Shed = src.Float64() * 0.9
			}
			states = append(states, s)
			if err := single.SetFailed(s.ID, s.Failed); err != nil {
				t.Fatal(err)
			}
			if err := single.SetShed(s.ID, s.Shed); err != nil {
				t.Fatal(err)
			}
		}
		if err := bulk.Apply(states); err != nil {
			t.Fatal(err)
		}
		for i, id := range bulk.ring.ids {
			if bulk.failedAt[i] != single.failedAt[i] || bulk.shedCutAt[i] != single.shedCutAt[i] ||
				bulk.nextLiveAt[i] != single.nextLiveAt[i] {
				t.Fatalf("seed %d: dense state of member %d differs between Apply and setters", seed, id)
			}
			if bulk.failedAt[i] != bulk.Failed(id) {
				t.Fatalf("seed %d: failedAt[%d] = %v, Failed(%d) = %v", seed, i, bulk.failedAt[i], id, bulk.Failed(id))
			}
			want := int32(-1)
			for step := 1; step <= n; step++ {
				if j := (i + step) % n; !bulk.Failed(bulk.ring.ids[j]) {
					want = int32(j)
					break
				}
			}
			if bulk.nextLiveAt[i] != want {
				t.Fatalf("seed %d: nextLiveAt[%d] = %d, want %d", seed, i, bulk.nextLiveAt[i], want)
			}
		}
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("apply/%d", i)
			a, pa, oka := bulk.Owner(key)
			b, pb, okb := single.Owner(key)
			if a != b || pa != pb || oka != okb {
				t.Fatalf("seed %d: Owner(%q) = (%d, %d, %v) after Apply, (%d, %d, %v) after setters",
					seed, key, a, pa, oka, b, pb, okb)
			}
		}
		singleShares := SharesOf[NodeID](single)
		for id, s := range SharesOf[NodeID](bulk) {
			if s != singleShares[id] {
				t.Fatalf("seed %d: share of %d is %g after Apply, %g after setters", seed, id, s, singleShares[id])
			}
		}
	}
}

// TestApplyIsAtomic: one bad entry anywhere in the batch rejects the
// whole batch before any entry takes effect.
func TestApplyIsAtomic(t *testing.T) {
	b := newBounded(t, 4)
	if err := b.SetShed(2, 0.3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []NodeState{{ID: 99}, {ID: 3, Shed: 1}, {ID: 3, Shed: math.NaN()}} {
		err := b.Apply([]NodeState{{ID: 0, Failed: true}, {ID: 2}, bad})
		if err == nil {
			t.Fatalf("Apply accepted %+v", bad)
		}
		if b.Failed(0) || b.Shed(2) != 0.3 {
			t.Fatalf("rejected Apply (%v) changed the ring", err)
		}
	}
}

func TestBoundedCloneIsIndependent(t *testing.T) {
	b := newBounded(t, 4)
	b.SetShed(0, 0.3)
	c := b.Clone()
	if err := c.Leave(2); err != nil {
		t.Fatal(err)
	}
	c.SetFailed(1, true)
	c.SetShed(0, 0.9)
	if b.Ring().N() != 4 || b.Failed(1) || b.Shed(0) != 0.3 {
		t.Fatal("mutating the clone changed the original")
	}
	if err := c.Join(7); err != nil {
		t.Fatal(err)
	}
	if b.Ring().N() != 4 {
		t.Fatal("clone Join changed the original ring")
	}
}

func TestBoundedSingleNode(t *testing.T) {
	b := newBounded(t, 1)
	b.SetShed(0, 0.9)
	id, probes, ok := b.Owner("only")
	if !ok || id != 0 || probes != 1 {
		t.Fatalf("single-node owner = (%d, %d, %v)", id, probes, ok)
	}
	if s := SharesOf[NodeID](b)[0]; s != 1 {
		t.Errorf("single-node share %g, want 1", s)
	}
}
