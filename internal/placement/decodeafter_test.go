package placement

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"anurand/internal/hashx"
)

// tunedChord builds a chord strategy over members with one failed
// member and, under chord-bounded, shed fractions from a skewed round:
// a snapshot that exercises every field of the record codec.
func tunedChord(t *testing.T, tag string, members []ServerID, seed uint64) Strategy {
	t.Helper()
	s, err := New(tag, members, Options{HashSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(members[2]); err != nil {
		t.Fatal(err)
	}
	reports := make([]Report, 0, len(members))
	for i, id := range members {
		reports = append(reports, Report{Server: id, Requests: uint64(100 + 4000*(i%3)), Latency: 1})
	}
	if _, err := s.Tune(reports); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameChord fails the test unless got is the placement want is:
// byte-identical encodings, the same owner and probe count for 10k
// digests, equal shares and equal membership.
func sameChord(t *testing.T, want, got Strategy) {
	t.Helper()
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatal("encodings differ")
	}
	for i := 0; i < 10000; i++ {
		d := hashx.Prehash(fmt.Sprintf("fs/%d", i))
		wid, wp := want.LookupDigest(d)
		gid, gp := got.LookupDigest(d)
		if wid != gid || wp != gp {
			t.Fatalf("digest %d: LookupDigest = (%d, %d), cold decode (%d, %d)", i, gid, gp, wid, wp)
		}
	}
	if !maps.Equal(want.Shares(), got.Shares()) {
		t.Fatalf("Shares = %v, cold decode %v", got.Shares(), want.Shares())
	}
	for id := ServerID(-2); id < 24; id++ {
		if want.Has(id) != got.Has(id) {
			t.Fatalf("Has(%d) = %v, cold decode %v", id, got.Has(id), want.Has(id))
		}
	}
}

// TestChordDecodeAfterMatchesCold pins the warm ring decode: a snapshot
// decoded after a placement with the same seed and members (the path
// that reuses its ring) or after one with other members, another seed
// or another strategy (the paths that rebuild it) is the placement a
// cold decode gives, and the previous placement is left as it was, even
// when the result then changes membership.
func TestChordDecodeAfterMatchesCold(t *testing.T) {
	members := []ServerID{0, 1, 2, 3, 5, 8, 13, 21}
	for _, tag := range []string{StrategyChord, StrategyChordBounded} {
		t.Run(tag, func(t *testing.T) {
			data := tunedChord(t, tag, members, 7).Encode()
			cold, err := Decode(data, Options{})
			if err != nil {
				t.Fatal(err)
			}
			other := StrategyChord
			if tag == StrategyChord {
				other = StrategyChordBounded
			}
			prevs := map[string]Strategy{
				"same members":         mustNewOpts(t, tag, members, 7),
				"same members, tuned":  cold,
				"other ring strategy":  mustNewOpts(t, other, members, 7),
				"one more member":      mustNewOpts(t, tag, append(members[:len(members):len(members)], 22), 7),
				"one member less":      mustNewOpts(t, tag, members[1:], 7),
				"one member swapped":   mustNewOpts(t, tag, append(members[:len(members)-1:len(members)-1], 22), 7),
				"other seed":           mustNewOpts(t, tag, members, 8),
				"not a ring":           mustNewOpts(t, StrategyANU, members, 7),
				"cold (nil)":           nil,
				"other seed and tuned": tunedChord(t, tag, members, 8),
			}
			for name, prev := range prevs {
				t.Run(name, func(t *testing.T) {
					var before []byte
					if prev != nil {
						before = prev.Encode()
					}
					warm, _, err := DecodeAfter(data, Options{}, prev)
					if err != nil {
						t.Fatal(err)
					}
					sameChord(t, cold, warm)
					// The result owns its membership: changing it leaves
					// prev untouched.
					if err := warm.AddServer(30); err != nil {
						t.Fatal(err)
					}
					if err := warm.RemoveServer(members[0]); err != nil {
						t.Fatal(err)
					}
					if prev != nil && !bytes.Equal(prev.Encode(), before) {
						t.Fatal("decoding after prev changed prev")
					}
				})
			}
			// Rejections do not depend on prev.
			for _, bad := range [][]byte{data[:len(data)-1], append(bytes.Clone(data), 0)} {
				if _, _, err := DecodeAfter(bad, Options{}, cold); err == nil {
					t.Error("warm decode accepted a malformed snapshot")
				}
			}
		})
	}
}

// TestChordDecodeAfterAllocatesLess pins that the reuse path is taken:
// decoding after a placement with the same seed and members allocates
// less than a cold decode, which re-hashes and re-sorts the ring.
func TestChordDecodeAfterAllocatesLess(t *testing.T) {
	members := make([]ServerID, 100)
	for i := range members {
		members[i] = ServerID(i)
	}
	for _, tag := range []string{StrategyChord, StrategyChordBounded} {
		prev := tunedChord(t, tag, members, 7)
		data := prev.Encode()
		cold := testing.AllocsPerRun(20, func() {
			if _, err := Decode(data, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		warm := testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeAfter(data, Options{}, prev); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s, 100 members: %g allocs per cold decode, %g per warm", tag, cold, warm)
		if warm >= cold {
			t.Errorf("%s: decode after the installed ring allocated %g times, cold decode %g", tag, warm, cold)
		}
	}
}

func mustNewOpts(t *testing.T, tag string, members []ServerID, seed uint64) Strategy {
	t.Helper()
	s, err := New(tag, members, Options{HashSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
