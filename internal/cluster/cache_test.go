package cluster

import (
	"slices"
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/delegate"
	"anurand/internal/hashx"
)

// TestMapStateReadsCachedInstall runs a small cluster to a few installs,
// then checks on every node that MapState agrees with the FNV digest of
// Snapshot(), allocates nothing, and that Snapshot hands out a copy.
func TestMapStateReadsCachedInstall(t *testing.T) {
	rts := startTuneCluster(t, nil)
	waitFor(t, 20*time.Second, "three installs on every follower", func() bool {
		for _, rt := range rts[1:] {
			if rt.Stats().MapsInstalled < 3 {
				return false
			}
		}
		return true
	})
	for _, rt := range rts {
		rt.Stop() // freeze the installed map
	}
	for _, rt := range rts {
		_, _, fp := rt.MapState()
		snap := rt.Snapshot()
		if want := delegate.SnapshotFingerprint(snap); fp != want {
			t.Fatalf("node %d: MapState fingerprint %#x, FNV(Snapshot()) %#x", rt.ID(), fp, want)
		}
		if want := delegate.SnapshotFingerprint(rt.Placement().Encode()); fp != want {
			t.Fatalf("node %d: MapState fingerprint %#x, FNV(Encode()) %#x", rt.ID(), fp, want)
		}
		for i := range snap {
			snap[i] ^= 0xff
		}
		if again := rt.Snapshot(); delegate.SnapshotFingerprint(again) != fp {
			t.Fatalf("node %d: mutating a returned Snapshot changed the next one", rt.ID())
		}
		if allocs := testing.AllocsPerRun(100, func() { rt.MapState() }); allocs != 0 {
			t.Fatalf("node %d: MapState allocates %.1f times per call, want 0", rt.ID(), allocs)
		}
	}
}

// TestLivenessBySlot starts the delegate of members {0, 2, 4} alone.
// Member 2 heartbeats; member 4 is never heard; non-member 3, whose id
// falls between 2 and 4, heartbeats too. The first tune must mark 4
// failed, and 3's traffic must not count for anyone.
func TestLivenessBySlot(t *testing.T) {
	mn, err := NewMemNetwork(ChaosConfig{Seed: 3}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer mn.Close()
	ids := []delegate.NodeID{0, 2, 4}
	m, err := anu.New(hashx.NewFamily(42), ids)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Start(Config{
		ID:            0,
		Members:       ids,
		Snapshot:      m.Encode(),
		Controller:    anu.DefaultControllerConfig(),
		RoundInterval: 100 * time.Millisecond,
	}, mn.Endpoint(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	heard, stranger := mn.Endpoint(2), mn.Endpoint(3)
	beat := func() {
		heard.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 2, To: 0})
		stranger.SendAsync(delegate.Message{Kind: MsgHeartbeat, From: 3, To: 0})
	}
	waitFor(t, 10*time.Second, "the first tune", func() bool {
		beat()
		return rt.Stats().Tunes >= 1
	})
	beat()
	if view := rt.Stats().Live; !slices.Equal(view, []delegate.NodeID{0, 2}) {
		t.Fatalf("view %v, want [0 2]: a non-member's traffic counted for a member", view)
	}
	shares := rt.Placement().Shares()
	if shares[4] != 0 {
		t.Fatalf("never-heard member 4 kept share %g after the first tune", shares[4])
	}
	if shares[2] == 0 {
		t.Fatal("heard member 2 was failed")
	}
}
