package placement

import (
	"bytes"
	"fmt"
	"testing"

	"anurand/internal/hashx"
)

// FuzzWeightedSnapshot hammers the weighted snapshot codec shared by
// the weight-aware strategies (rendezvous, weighted-static, power-of-d)
// with arbitrary bytes: Decode must never panic, anything it accepts
// must satisfy the strategy invariants, and — because the member codec
// is canonical — must re-encode byte-identically.
func FuzzWeightedSnapshot(f *testing.F) {
	weights := map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7}
	for _, name := range []string{StrategyRendezvous, StrategyWeightedStatic, StrategyPowerOfD} {
		s, err := New(name, []ServerID{0, 1, 2, 3}, Options{HashSeed: 9, Weights: weights})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
		if err := s.Fail(2); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Tune([]Report{{Server: 0, Requests: 1200, Latency: 0.8}}); err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
	}
	f.Add([]byte{})
	f.Add(EncodeTagged(StrategyRendezvous, nil))
	f.Add(EncodeTagged("never-registered", []byte{1, 2, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data, Options{})
		if err != nil {
			return
		}
		switch dec.(type) {
		case *Rendezvous, *WeightedStatic, *PowerOfD:
		default:
			return // FuzzChordSnapshot and anu's FuzzDecode cover the rest
		}
		if err := dec.(Invariants).CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		if !bytes.Equal(dec.Encode(), data) {
			t.Fatal("accepted snapshot does not re-encode canonically")
		}
		// The accepted state must be servable: lookups succeed whenever
		// any member is live, and never land on a failed member.
		shares := dec.Shares()
		id, ok := Lookup(dec, "fuzz-probe")
		if ok && shares[id] == 0 {
			t.Fatalf("lookup placed on share-less server %d", id)
		}
	})
}

// FuzzChordSnapshot is FuzzWeightedSnapshot for the ring strategies
// (chord and chord-bounded): Decode never panics, and an accepted
// snapshot satisfies the invariants, re-encodes byte-identically, and
// never places a key on a member with zero share. Each input is also
// decoded after the placement decoded from the previous input, as a
// node decodes an install after the map it holds, and after its own
// cold decode (the ring-reuse path): both must accept exactly what the
// cold decode accepts and re-encode and route as it does.
func FuzzChordSnapshot(f *testing.F) {
	for _, name := range []string{StrategyChord, StrategyChordBounded} {
		s, err := New(name, []ServerID{0, 1, 2, 3, 5, 8}, Options{HashSeed: 9})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
		if err := s.Fail(2); err != nil {
			f.Fatal(err)
		}
		if _, err := s.Tune([]Report{
			{Server: 0, Requests: 9000, Latency: 1},
			{Server: 1, Requests: 100, Latency: 1},
			{Server: 3, Requests: 100, Latency: 1},
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(s.Encode())
	}
	f.Add([]byte{})
	f.Add(EncodeTagged(StrategyChordBounded, nil))

	var prev Strategy // the placement decoded from the previous input
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data, Options{})
		after, afterErr := DecodeAfter(data, Options{}, prev)
		if (err == nil) != (afterErr == nil) {
			t.Fatalf("cold decode error %v, decode after the previous input %v", err, afterErr)
		}
		if err != nil {
			return
		}
		prev = after
		if _, ok := dec.(*Chord); !ok {
			return
		}
		again, err := DecodeAfter(data, Options{}, dec)
		if err != nil {
			t.Fatalf("decode after its own cold decode: %v", err)
		}
		for _, warm := range []Strategy{after, again} {
			if !bytes.Equal(warm.Encode(), data) {
				t.Fatal("warm decode does not re-encode as the cold decode")
			}
			for i := 0; i < 16; i++ {
				d := hashx.Prehash(fmt.Sprintf("fuzz-probe/%d", i))
				want, _ := dec.LookupDigest(d)
				if got, _ := warm.LookupDigest(d); got != want {
					t.Fatalf("warm decode routes probe %d to %d, cold decode to %d", i, got, want)
				}
			}
		}
		if err := dec.(Invariants).CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		if !bytes.Equal(dec.Encode(), data) {
			t.Fatal("accepted snapshot does not re-encode canonically")
		}
		shares := dec.Shares()
		for i := 0; i < 16; i++ {
			key := fmt.Sprintf("fuzz-probe/%d", i)
			if id, ok := Lookup(dec, key); ok && shares[id] == 0 {
				t.Fatalf("lookup of %q placed on share-less server %d", key, id)
			}
		}
	})
}
