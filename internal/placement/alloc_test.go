package placement

import (
	"fmt"
	"testing"

	"anurand/internal/hashx"
)

// TestLookupPathsZeroAllocs pins the data-plane contract for every
// registered strategy: single lookups, batched lookups, and the digest
// fast path must not allocate. One failed member keeps the failover
// branches in play.
func TestLookupPathsZeroAllocs(t *testing.T) {
	servers := []ServerID{0, 1, 2, 3, 4, 5, 6, 7}
	keys := make([]string, 256)
	digests := make([]hashx.Digest, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("fileset/%04d", i)
		digests[i] = hashx.Prehash(keys[i])
	}
	owners := make([]ServerID, len(keys))
	for _, tag := range Names() {
		t.Run(tag, func(t *testing.T) {
			s, err := New(tag, servers, Options{HashSeed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Fail(3); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, key := range keys {
					Lookup(s, key)
				}
			}); n != 0 {
				t.Errorf("Lookup(%s) allocated %g times per %d lookups, want 0", tag, n, len(keys))
			}
			if n := testing.AllocsPerRun(100, func() {
				s.LookupBatch(keys, owners)
			}); n != 0 {
				t.Errorf("%s.LookupBatch allocated %g times per batch, want 0", tag, n)
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, d := range digests {
					s.LookupDigest(d)
				}
			}); n != 0 {
				t.Errorf("%s.LookupDigest allocated %g times per %d lookups, want 0", tag, n, len(digests))
			}
		})
	}
}

// TestChordLookupDigestMatchesLookup pins digest/string equivalence for
// both ring strategies: LookupDigest(Prehash(k)) must agree with the
// ring's own string path, Owner(k), which is what lets callers cache
// digests safely.
func TestChordLookupDigestMatchesLookup(t *testing.T) {
	for _, tag := range []string{StrategyChord, StrategyChordBounded} {
		s, err := New(tag, []ServerID{0, 1, 2, 3, 4}, Options{HashSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fail(2); err != nil {
			t.Fatal(err)
		}
		ring := s.(*Chord).Ring()
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("fs/%d", i)
			id, probes, ok := ring.Owner(key)
			did, dprobes := s.LookupDigest(hashx.Prehash(key))
			if !ok {
				t.Fatalf("%s: Owner(%q) not ok with live members", tag, key)
			}
			if did != ServerID(id) || dprobes != probes {
				t.Fatalf("%s: LookupDigest(%q) = (%d, %d), Owner = (%d, %d)", tag, key, did, dprobes, id, probes)
			}
		}
	}
}
