package cluster

import (
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/placement"
)

// dualTagRuntime boots a quiet single-node runtime and opens a
// dual-tag window on it, the data-plane state a live migration holds
// while the new strategy warms: lookups keep serving the old snapshot
// through the same lock-free pointer.
func dualTagRuntime(tb testing.TB) *Runtime {
	tb.Helper()
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cn.Close)
	ids, snapshot := bootstrap(tb, 4)
	rt, err := Start(Config{
		ID: 0, Members: ids, Snapshot: snapshot,
		Controller: anu.DefaultControllerConfig(), RoundInterval: time.Hour,
	}, cn.Endpoint(0))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	rt.mu.Lock()
	rt.node.OpenDualTag(placement.StrategyChordBounded)
	rt.mu.Unlock()
	return rt
}

// TestDualTagLookupZeroAlloc pins the migration window's data plane at
// zero allocations: a cutover that makes every lookup allocate would
// turn the "zero downtime" promise into a GC stall at the worst
// moment. bench-gate-allocs enforces the same bound on the benchmark
// below.
func TestDualTagLookupZeroAlloc(t *testing.T) {
	rt := dualTagRuntime(t)
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
	owners := make([]anu.ServerID, len(keys))
	if avg := testing.AllocsPerRun(200, func() {
		for _, key := range keys {
			if _, ok := rt.Lookup(key); !ok {
				t.Fatal("lookup failed inside the dual-tag window")
			}
		}
	}); avg != 0 {
		t.Errorf("Lookup allocates %.1f/op inside the dual-tag window, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if got := rt.LookupBatch(keys, owners); got != len(keys) {
			t.Fatalf("batch resolved %d/%d inside the dual-tag window", got, len(keys))
		}
	}); avg != 0 {
		t.Errorf("LookupBatch allocates %.1f/op inside the dual-tag window, want 0", avg)
	}
}

// BenchmarkDualTagLookup measures the lookup fast path while a
// dual-tag migration window is open — it must match the steady-state
// path exactly (same atomic snapshot load, zero allocations).
func BenchmarkDualTagLookup(b *testing.B) {
	rt := dualTagRuntime(b)
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Lookup(keys[i&3]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
