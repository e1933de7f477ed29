package placement

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"anurand/internal/anu"
	"anurand/internal/chordring"
	"anurand/internal/hashx"
)

func servers(n int) []ServerID {
	out := make([]ServerID, n)
	for i := range out {
		out[i] = ServerID(i)
	}
	return out
}

func mustNew(t *testing.T, name string, n int) Strategy {
	t.Helper()
	s, err := New(name, servers(n), Options{HashSeed: 7})
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return s
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{StrategyANU, StrategyChord, StrategyChordBounded} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	if _, err := New("no-such-strategy", servers(3), Options{}); err == nil {
		t.Error("New of unregistered strategy succeeded")
	}
}

// TestANUEncodingIsRawMap is the compatibility keystone: the ANU
// strategy's snapshot must be byte-identical to anu.Map.Encode, so
// pre-placement-layer journals and wire frames remain decodable.
func TestANUEncodingIsRawMap(t *testing.T) {
	m, err := anu.New(hashx.NewFamily(7), servers(5))
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, StrategyANU, 5)
	if !bytes.Equal(s.Encode(), m.Encode()) {
		t.Fatal("ANU strategy encoding differs from raw anu.Map encoding")
	}
	// And a raw map snapshot decodes into the ANU strategy.
	dec, err := Decode(m.Encode(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name() != StrategyANU {
		t.Fatalf("raw map decoded as %q", dec.Name())
	}
	if !bytes.Equal(dec.Encode(), m.Encode()) {
		t.Fatal("decode/encode round-trip changed ANU bytes")
	}
}

func TestTagSniffing(t *testing.T) {
	anuBytes := mustNew(t, StrategyANU, 4).Encode()
	if tag, err := Tag(anuBytes); err != nil || tag != StrategyANU {
		t.Fatalf("Tag(anu) = (%q, %v)", tag, err)
	}
	chordBytes := mustNew(t, StrategyChordBounded, 4).Encode()
	if tag, err := Tag(chordBytes); err != nil || tag != StrategyChordBounded {
		t.Fatalf("Tag(chord-bounded) = (%q, %v)", tag, err)
	}
	if _, err := Tag([]byte("garbage")); err == nil {
		t.Error("Tag accepted garbage")
	}
	if _, err := Tag(nil); err == nil {
		t.Error("Tag accepted nil")
	}
	// A container whose declared name length overruns the data.
	bad := EncodeTagged("chord", nil)
	bad[4] = 200
	if _, _, err := DecodeTagged(bad); err == nil {
		t.Error("DecodeTagged accepted overrunning name length")
	}
}

func TestRoundTripAllStrategies(t *testing.T) {
	for _, name := range []string{StrategyANU, StrategyChord, StrategyChordBounded} {
		t.Run(name, func(t *testing.T) {
			s := mustNew(t, name, 6)
			// Perturb: fail one member, tune with skewed reports.
			if err := s.Fail(2); err != nil {
				t.Fatal(err)
			}
			reports := []Report{
				{Server: 0, Requests: 9000, Latency: 2.0},
				{Server: 1, Requests: 500, Latency: 0.5},
				{Server: 2, Failed: true},
				{Server: 3, Requests: 400, Latency: 0.6},
				{Server: 4, Requests: 450, Latency: 0.5},
				{Server: 5, Requests: 420, Latency: 0.4},
			}
			for i := 0; i < 5; i++ {
				if _, err := s.Tune(reports); err != nil {
					t.Fatal(err)
				}
			}
			enc := s.Encode()
			dec, err := Decode(enc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if dec.Name() != name {
				t.Fatalf("round trip changed tag: %q", dec.Name())
			}
			if !bytes.Equal(dec.Encode(), enc) {
				t.Fatal("re-encode differs from original encoding")
			}
			if !reflect.DeepEqual(dec.Servers(), s.Servers()) {
				t.Fatalf("membership changed: %v vs %v", dec.Servers(), s.Servers())
			}
			// Decoded strategy places keys identically.
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("fs/%d", i)
				a, aok := Lookup(s, key)
				b, bok := Lookup(dec, key)
				if a != b || aok != bok {
					t.Fatalf("lookup %q: original (%d,%v) decoded (%d,%v)", key, a, aok, b, bok)
				}
			}
			if inv, ok := dec.(Invariants); ok {
				if err := inv.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			if s.SharedStateSize() != len(enc) {
				t.Errorf("SharedStateSize %d, len(Encode) %d", s.SharedStateSize(), len(enc))
			}
		})
	}
}

// TestCrossStrategyDecode is the tag-mismatch core: bytes from one
// strategy must never decode as another.
func TestCrossStrategyDecode(t *testing.T) {
	anuBytes := mustNew(t, StrategyANU, 4).Encode()
	chordBytes := mustNew(t, StrategyChord, 4).Encode()
	boundedBytes := mustNew(t, StrategyChordBounded, 4).Encode()

	reg := map[string]Factory{}
	for _, name := range []string{StrategyANU, StrategyChord, StrategyChordBounded} {
		f, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		reg[name] = f
	}
	if _, err := reg[StrategyANU].Decode(chordBytes, Options{}, nil); err == nil {
		t.Error("ANU factory decoded chord bytes")
	}
	if _, err := reg[StrategyChord].Decode(anuBytes, Options{}, nil); err == nil {
		t.Error("chord factory decoded ANU bytes")
	}
	if _, err := reg[StrategyChord].Decode(boundedBytes, Options{}, nil); err == nil {
		t.Error("chord factory decoded chord-bounded bytes")
	}
	if _, err := reg[StrategyChordBounded].Decode(chordBytes, Options{}, nil); err == nil {
		t.Error("chord-bounded factory decoded chord bytes")
	}
	// Package Decode dispatches each to its own strategy.
	for _, data := range [][]byte{anuBytes, chordBytes, boundedBytes} {
		if _, err := Decode(data, Options{}); err != nil {
			t.Errorf("Decode: %v", err)
		}
	}
}

func TestDecodeRejectsCorruptChord(t *testing.T) {
	good := mustNew(t, StrategyChordBounded, 4).Encode()
	for cut := 1; cut < len(good); cut += 7 {
		if _, err := Decode(good[:cut], Options{}); err == nil {
			// A truncation that leaves a valid shorter snapshot would be
			// caught by the record-count check; none should pass.
			t.Errorf("truncated chord snapshot of %d bytes decoded", cut)
		}
	}
	// Corrupt a shed fraction to NaN.
	bad := append([]byte(nil), good...)
	// payload starts after magic(4)+nameLen(1)+name; shed of member 0 is
	// at payload offset 20+4+1.
	off := 5 + len(StrategyChordBounded) + 25
	for i := 0; i < 8; i++ {
		bad[off+i] = 0xff
	}
	if _, err := Decode(bad, Options{}); err == nil {
		t.Error("NaN shed fraction decoded")
	}
}

// TestDecodeRejectsNonCanonicalChord: the chord member codec accepts
// exactly the bytes Encode writes — a failed flag other than 0 or 1, or
// a -0 shed, would decode to a state that re-encodes differently.
func TestDecodeRejectsNonCanonicalChord(t *testing.T) {
	for _, name := range []string{StrategyChord, StrategyChordBounded} {
		good := mustNew(t, name, 4).Encode()
		// Member 0's record starts after magic(4)+nameLen(1)+name and the
		// 20-byte payload header: id(4), then the flag, then the shed.
		rec := 5 + len(name) + 20
		flag := append([]byte(nil), good...)
		flag[rec+4] = 2
		if _, err := Decode(flag, Options{}); err == nil {
			t.Errorf("%s: failed flag 2 decoded", name)
		}
		negZero := append([]byte(nil), good...)
		negZero[rec+5+7] = 0x80 // sign bit of the little-endian shed
		if _, err := Decode(negZero, Options{}); err == nil {
			t.Errorf("%s: -0 shed decoded", name)
		}
	}
}

// TestChordTuneRejectsAtomically: a round holding a report for an
// unknown server is refused before any other report in it takes
// effect, so the delegate keeps serving its previous ring unchanged.
func TestChordTuneRejectsAtomically(t *testing.T) {
	s := mustNew(t, StrategyChordBounded, 5)
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	hot := []Report{
		{Server: 0, Requests: 9000, Latency: 1},
		{Server: 1, Requests: 100, Latency: 1},
		{Server: 2, Requests: 100, Latency: 1},
		{Server: 3, Requests: 100, Latency: 1},
	}
	if _, err := s.Tune(hot); err != nil {
		t.Fatal(err)
	}
	before := s.Encode()
	bad := []Report{
		{Server: 0, Requests: 100, Latency: 1}, // would decay 0's shed
		{Server: 1, Failed: true},              // would down 1
		{Server: 4, Requests: 100, Latency: 1}, // would revive 4
		{Server: 99, Requests: 1, Latency: 1},
	}
	changed, err := s.Tune(bad)
	if err == nil {
		t.Fatal("report for unknown server accepted")
	}
	if changed {
		t.Error("rejected Tune reported a change")
	}
	if !bytes.Equal(s.Encode(), before) {
		t.Fatal("rejected Tune changed the ring")
	}
}

func TestChordTuneShedsOverloadedNode(t *testing.T) {
	s := mustNew(t, StrategyChordBounded, 5)
	c := s.(*Chord)
	hot := ServerID(1)
	reports := make([]Report, 5)
	for i := range reports {
		reports[i] = Report{Server: ServerID(i), Requests: 1000, Latency: 1}
	}
	reports[hot].Requests = 10000
	for i := 0; i < 12; i++ {
		if _, err := s.Tune(reports); err != nil {
			t.Fatal(err)
		}
	}
	shed := c.Ring().Shed(1)
	// fair = 14000/5 = 2800; target = 1 - 1.25*2800/10000 = 0.65 → capped.
	if math.Abs(shed-maxShed) > 1e-6 {
		t.Errorf("hot node shed %g, want cap %g", shed, maxShed)
	}
	// Cold nodes shed nothing.
	for _, id := range []chordring.NodeID{0, 2, 3, 4} {
		if s := c.Ring().Shed(id); s != 0 {
			t.Errorf("cold node %d shed %g", id, s)
		}
	}
	// Load equalizes → shed decays back to zero.
	for i := range reports {
		reports[i].Requests = 1000
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Tune(reports); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Ring().Shed(1); got != 0 {
		t.Errorf("balanced cluster still sheds %g", got)
	}
	// Plain chord never sheds.
	p := mustNew(t, StrategyChord, 5)
	reports[1].Requests = 10000
	if _, err := p.Tune(reports); err != nil {
		t.Fatal(err)
	}
	if got := p.(*Chord).Ring().Shed(1); got != 0 {
		t.Errorf("plain chord shed %g", got)
	}
}

func TestChordTuneFailureAndRevival(t *testing.T) {
	s := mustNew(t, StrategyChordBounded, 4)
	if _, err := s.Tune([]Report{{Server: 2, Failed: true}}); err != nil {
		t.Fatal(err)
	}
	if !s.(*Chord).Ring().Failed(2) {
		t.Fatal("Failed report did not down the member")
	}
	if share := s.Shares()[2]; share != 0 {
		t.Fatalf("downed member holds share %g", share)
	}
	// A live report revives it, mirroring the ANU controller.
	if _, err := s.Tune([]Report{{Server: 2, Requests: 10, Latency: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.(*Chord).Ring().Failed(2) {
		t.Fatal("live report did not revive the member")
	}
	if _, err := s.Tune([]Report{{Server: 99, Requests: 1, Latency: 1}}); err == nil {
		t.Fatal("report for unknown member accepted")
	}
}

func TestStrategyLifecycle(t *testing.T) {
	for _, name := range []string{StrategyANU, StrategyChord, StrategyChordBounded} {
		t.Run(name, func(t *testing.T) {
			s := mustNew(t, name, 3)
			if err := s.AddServer(7); err != nil {
				t.Fatal(err)
			}
			if !s.Has(7) {
				t.Fatal("added server missing")
			}
			if err := s.Fail(7); err != nil {
				t.Fatal(err)
			}
			if share := s.Shares()[7]; share != 0 {
				t.Fatalf("failed server holds share %g", share)
			}
			if err := s.Recover(7); err != nil {
				t.Fatal(err)
			}
			if share := s.Shares()[7]; share <= 0 {
				t.Fatalf("recovered server holds share %g", share)
			}
			if err := s.RemoveServer(7); err != nil {
				t.Fatal(err)
			}
			if s.Has(7) {
				t.Fatal("removed server still present")
			}
			var sum float64
			for _, v := range s.Shares() {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %g", sum)
			}
			// Clone independence.
			clone := s.Clone()
			if err := clone.Fail(1); err != nil {
				t.Fatal(err)
			}
			if share := s.Shares()[1]; share == 0 {
				t.Fatal("failing the clone failed the original")
			}
			// Batch lookup agrees with single lookup.
			keys := []string{"a", "b", "c", "d"}
			owners := make([]ServerID, 4)
			if got := s.LookupBatch(keys, owners); got != 4 {
				t.Fatalf("LookupBatch resolved %d of 4", got)
			}
			for i, key := range keys {
				if id, ok := Lookup(s, key); !ok || id != owners[i] {
					t.Fatalf("batch owner %d, single owner %d", owners[i], id)
				}
			}
		})
	}
}

func TestANUAdoptState(t *testing.T) {
	a := mustNew(t, StrategyANU, 3).(*ANU)
	reports := []Report{
		{Server: 0, Requests: 100, Latency: 5},
		{Server: 1, Requests: 100, Latency: 1},
		{Server: 2, Requests: 100, Latency: 1},
	}
	if _, err := a.Tune(reports); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(a.Encode(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := dec.(*ANU)
	if fresh.Controller() == a.Controller() {
		t.Fatal("decode shared the controller without adoption")
	}
	fresh.AdoptState(a)
	if fresh.Controller() != a.Controller() {
		t.Fatal("AdoptState did not adopt the controller")
	}
	// Adopting across strategies is a no-op.
	chord := mustNew(t, StrategyChord, 3)
	before := fresh.Controller()
	fresh.AdoptState(chord)
	if fresh.Controller() != before {
		t.Fatal("AdoptState from chord replaced the controller")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(StrategyChordBounded, servers(3), Options{LoadBound: 0.9}); err == nil {
		t.Error("LoadBound 0.9 accepted")
	}
	if _, err := New(StrategyChordBounded, servers(3), Options{LoadBound: math.NaN()}); err == nil {
		t.Error("NaN LoadBound accepted")
	}
	bad := anu.DefaultControllerConfig()
	bad.Gamma = -1
	if _, err := New(StrategyANU, servers(3), Options{Controller: bad}); err == nil {
		t.Error("negative Gamma accepted")
	}
	if _, err := New(StrategyANU, nil, Options{}); err == nil {
		t.Error("empty server set accepted")
	}
	// Unknown-strategy error names the registered ones.
	_, err := New("bogus", servers(2), Options{})
	if err == nil || !strings.Contains(err.Error(), StrategyANU) {
		t.Errorf("unknown-strategy error %v does not list registered names", err)
	}
}
