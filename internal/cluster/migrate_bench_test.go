package cluster

import (
	"testing"
	"time"

	"anurand/internal/anu"
	"anurand/internal/placement"
)

// windowRuntime boots a quiet single-node runtime whose map holds a
// migration window, the state every node holds while a live migration's
// window is open: lookups serve the window's strategy through the same
// lock-free pointer.
func windowRuntime(tb testing.TB) *Runtime {
	tb.Helper()
	cn, err := NewMemNetwork(ChaosConfig{}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cn.Close)
	ids, snapshot := bootstrap(tb, 4)
	window := placement.Window{From: placement.StrategyChordBounded, Opened: 1}
	rt, err := Start(Config{
		ID: 0, Members: ids, Snapshot: placement.EncodeWindow(window, snapshot),
		Controller: anu.DefaultControllerConfig(), RoundInterval: time.Hour,
	}, cn.Endpoint(0))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Stop)
	if got := rt.Stats().Window; got != window {
		tb.Fatalf("runtime holds window %+v, want %+v", got, window)
	}
	return rt
}

// TestDualTagLookupZeroAlloc pins the migration window's data plane at
// zero allocations: a cutover that makes every lookup allocate would
// turn the "zero downtime" promise into a GC stall at the worst
// moment. bench-gate-allocs enforces the same bound on the benchmark
// below.
func TestDualTagLookupZeroAlloc(t *testing.T) {
	rt := windowRuntime(t)
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
	owners := make([]anu.ServerID, len(keys))
	if avg := testing.AllocsPerRun(200, func() {
		for _, key := range keys {
			if _, ok := rt.Lookup(key); !ok {
				t.Fatal("lookup failed inside the migration window")
			}
		}
	}); avg != 0 {
		t.Errorf("Lookup allocates %.1f/op inside the migration window, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if got := rt.LookupBatch(keys, owners); got != len(keys) {
			t.Fatalf("batch resolved %d/%d inside the migration window", got, len(keys))
		}
	}); avg != 0 {
		t.Errorf("LookupBatch allocates %.1f/op inside the migration window, want 0", avg)
	}
}

// BenchmarkDualTagLookup measures the lookup fast path while a
// migration window is open — it must match the steady-state
// path exactly (same atomic snapshot load, zero allocations).
func BenchmarkDualTagLookup(b *testing.B) {
	rt := windowRuntime(b)
	keys := []string{"/home/alice", "/home/bob", "/var/mail", "/srv/data"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rt.Lookup(keys[i&3]); !ok {
			b.Fatal("lookup failed")
		}
	}
}
