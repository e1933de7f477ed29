package placement

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"anurand/internal/hashx"
)

// The conformance suite runs every registered strategy through the
// whole Strategy contract — lookup agreement across the four read
// paths, clone isolation, snapshot round-trips, tag-mismatch rejection,
// the membership lifecycle, and share normalization — so a new
// strategy cannot silently skip an invariant: registering it is
// enrolling it.

// conformanceOptions builds each strategy with a non-trivial
// configuration: a fixed seed and skewed weights for the weight-aware
// schemes (ignored by the rest), so the suite exercises the weighted
// paths rather than the uniform special case.
func conformanceOptions(n int) Options {
	weights := make(map[ServerID]float64, n)
	for i := 0; i < n; i++ {
		weights[ServerID(i)] = float64(2*i + 1)
	}
	return Options{HashSeed: 7, Weights: weights}
}

func conformanceNew(t *testing.T, name string, n int) Strategy {
	t.Helper()
	s, err := New(name, servers(n), conformanceOptions(n))
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return s
}

func conformanceKeys() []string {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("/srv/fileset-%03d", i)
	}
	return keys
}

// perturb drives the strategy through a failure and several feedback
// rounds so conformance checks run against live state, not a cold start.
func perturb(t *testing.T, s Strategy) {
	t.Helper()
	if err := s.Fail(2); err != nil {
		t.Fatalf("%s: Fail(2): %v", s.Name(), err)
	}
	reports := make([]Report, 0, len(s.Servers()))
	for i, id := range s.Servers() {
		if id == 2 {
			reports = append(reports, Report{Server: id, Failed: true})
			continue
		}
		reports = append(reports, Report{Server: id, Requests: uint64(300 + 997*i), Latency: 0.4 + 0.3*float64(i)})
	}
	for round := 0; round < 3; round++ {
		if _, err := s.Tune(reports); err != nil {
			t.Fatalf("%s: Tune: %v", s.Name(), err)
		}
	}
}

func TestConformanceLookupAgreement(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 6)
			perturb(t, s)
			keys := conformanceKeys()
			owners := make([]ServerID, len(keys))
			resolved := s.LookupBatch(keys, owners)
			if resolved != len(keys) {
				t.Fatalf("LookupBatch resolved %d of %d keys with live members", resolved, len(keys))
			}
			for i, key := range keys {
				id, ok := Lookup(s, key)
				if !ok {
					t.Fatalf("Lookup(%q) not ok with live members", key)
				}
				if id != owners[i] {
					t.Fatalf("Lookup(%q) = %d, LookupBatch said %d", key, id, owners[i])
				}
				pid, probes, ok := LookupProbes(s, key)
				if !ok || pid != id {
					t.Fatalf("LookupProbes(%q) = (%d, %v), Lookup said %d", key, pid, ok, id)
				}
				if probes < 1 {
					t.Fatalf("LookupProbes(%q) reported %d probes", key, probes)
				}
				if did, dprobes := s.LookupDigest(hashx.Prehash(key)); did != id || dprobes != probes {
					t.Fatalf("LookupDigest(Prehash(%q)) = (%d, %d), LookupProbes said (%d, %d)", key, did, dprobes, id, probes)
				}
				if s.Shares()[id] == 0 {
					t.Fatalf("Lookup(%q) placed on %d, which holds no share", key, id)
				}
			}
		})
	}
}

func TestConformanceCloneIsolation(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 6)
			perturb(t, s)
			before := s.Encode()
			keys := conformanceKeys()
			owners := make([]ServerID, len(keys))
			s.LookupBatch(keys, owners)

			clone := s.Clone()
			if err := clone.Fail(4); err != nil {
				t.Fatalf("clone.Fail: %v", err)
			}
			if err := clone.AddServer(99); err != nil {
				t.Fatalf("clone.AddServer: %v", err)
			}
			if _, err := clone.Tune([]Report{{Server: 0, Requests: 50000, Latency: 9.0}}); err != nil {
				t.Fatalf("clone.Tune: %v", err)
			}

			if !bytes.Equal(s.Encode(), before) {
				t.Fatal("mutating the clone changed the original's encoding")
			}
			after := make([]ServerID, len(keys))
			s.LookupBatch(keys, after)
			for i := range keys {
				if owners[i] != after[i] {
					t.Fatalf("mutating the clone moved key %q on the original: %d -> %d", keys[i], owners[i], after[i])
				}
			}
			if s.Has(99) {
				t.Fatal("clone.AddServer leaked into the original")
			}
		})
	}
}

func TestConformanceEncodeDecodeRoundTrip(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 6)
			perturb(t, s)
			enc := s.Encode()
			if got := s.SharedStateSize(); got != len(enc) {
				t.Fatalf("SharedStateSize = %d, len(Encode()) = %d", got, len(enc))
			}
			if tag, err := Tag(enc); err != nil || tag != name {
				t.Fatalf("Tag = (%q, %v), want %q", tag, err, name)
			}
			dec, err := Decode(enc, conformanceOptions(6))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if dec.Name() != name {
				t.Fatalf("decoded strategy is %q", dec.Name())
			}
			if !bytes.Equal(dec.Encode(), enc) {
				t.Fatal("Encode -> Decode -> Encode is not byte-identical")
			}
			if inv, ok := dec.(Invariants); ok {
				if err := inv.CheckInvariants(); err != nil {
					t.Fatalf("decoded strategy fails invariants: %v", err)
				}
			}
			// The decoded replica must place every key exactly where the
			// original does — snapshots are the system's replicated state.
			keys := conformanceKeys()
			a := make([]ServerID, len(keys))
			b := make([]ServerID, len(keys))
			s.LookupBatch(keys, a)
			dec.LookupBatch(keys, b)
			for i := range keys {
				if a[i] != b[i] {
					t.Fatalf("decoded replica places %q on %d, original on %d", keys[i], b[i], a[i])
				}
			}
		})
	}
}

// TestConformanceTagMismatch feeds every strategy's snapshot to every
// OTHER strategy's decoder: all must reject, no decoder may adopt a
// foreign placement.
func TestConformanceTagMismatch(t *testing.T) {
	encs := make(map[string][]byte)
	for _, name := range Names() {
		encs[name] = conformanceNew(t, name, 5).Encode()
	}
	for _, decName := range Names() {
		f, err := lookup(decName)
		if err != nil {
			t.Fatal(err)
		}
		for _, encName := range Names() {
			if encName == decName {
				continue
			}
			if _, err := f.Decode(encs[encName], conformanceOptions(5), nil); err == nil {
				t.Errorf("%s decoder accepted a %s snapshot", decName, encName)
			}
		}
	}
}

func TestConformanceLifecycle(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 4)
			keys := conformanceKeys()

			if err := s.Fail(1); err != nil {
				t.Fatalf("Fail: %v", err)
			}
			for _, key := range keys {
				if id, ok := Lookup(s, key); !ok || id == 1 {
					t.Fatalf("Lookup(%q) = (%d, %v) with server 1 failed", key, id, ok)
				}
			}
			if s.Shares()[1] != 0 {
				t.Fatal("failed server still holds a share")
			}
			if !s.Has(1) {
				t.Fatal("failed server dropped from membership")
			}

			if err := s.Recover(1); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if s.Shares()[1] == 0 {
				t.Fatal("recovered server holds no share")
			}

			if err := s.AddServer(7); err != nil {
				t.Fatalf("AddServer: %v", err)
			}
			if !s.Has(7) {
				t.Fatal("added server not a member")
			}
			wantServers := []ServerID{0, 1, 2, 3, 7}
			got := s.Servers()
			if len(got) != len(wantServers) {
				t.Fatalf("Servers() = %v, want %v", got, wantServers)
			}
			for i := range got {
				if got[i] != wantServers[i] {
					t.Fatalf("Servers() = %v, want %v (ascending)", got, wantServers)
				}
			}

			if err := s.RemoveServer(7); err != nil {
				t.Fatalf("RemoveServer: %v", err)
			}
			if s.Has(7) {
				t.Fatal("removed server still a member")
			}

			// Error paths: unknown ids must be rejected, not absorbed.
			if err := s.Fail(55); err == nil {
				t.Error("Fail(unknown) succeeded")
			}
			if err := s.RemoveServer(55); err == nil {
				t.Error("RemoveServer(unknown) succeeded")
			}
			if err := s.AddServer(0); err == nil {
				t.Error("AddServer(duplicate) succeeded")
			}
		})
	}
}

func TestConformanceSharesSumToOne(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 6)
			perturb(t, s)
			shares := s.Shares()
			if len(shares) != 6 {
				t.Fatalf("Shares() has %d entries, want 6", len(shares))
			}
			sum := 0.0
			for id, sh := range shares {
				if sh < 0 || math.IsNaN(sh) {
					t.Fatalf("server %d has share %g", id, sh)
				}
				sum += sh
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("shares sum to %g, want 1", sum)
			}
		})
	}
}

func TestConformanceAllFailed(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := conformanceNew(t, name, 3)
			for _, id := range s.Servers() {
				if err := s.Fail(id); err != nil {
					t.Fatalf("Fail(%d): %v", id, err)
				}
			}
			if id, ok := Lookup(s, "/srv/fileset-000"); ok {
				t.Fatalf("Lookup placed on %d with every server failed", id)
			}
			keys := []string{"a", "b", "c"}
			owners := make([]ServerID, len(keys))
			if resolved := s.LookupBatch(keys, owners); resolved != 0 {
				t.Fatalf("LookupBatch resolved %d keys with every server failed", resolved)
			}
			for i, id := range owners {
				if id != NoServer {
					t.Fatalf("owners[%d] = %d, want NoServer", i, id)
				}
			}
		})
	}
}
