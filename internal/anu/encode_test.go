package anu

import (
	"encoding/binary"
	"testing"

	"anurand/internal/hashx"
)

func TestEncodeDecodeBasic(t *testing.T) {
	m := newTestMap(t, 5)
	if err := m.SetWeights(map[ServerID]float64{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}); err != nil {
		t.Fatal(err)
	}
	data := m.Encode()
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Family().Seed() != m.Family().Seed() {
		t.Error("family seed not preserved")
	}
	for _, id := range m.Servers() {
		if dec.Length(id) != m.Length(id) {
			t.Errorf("server %d length %d != %d", id, dec.Length(id), m.Length(id))
		}
	}
}

func TestSharedStateSizeScalesWithServers(t *testing.T) {
	// The ANU scalability claim: shared state is O(k), independent of
	// how many file sets or how finely load is divided.
	s5 := newTestMap(t, 5).SharedStateSize()
	s10 := newTestMap(t, 10).SharedStateSize()
	s100 := newTestMap(t, 100).SharedStateSize()
	if s10 <= s5 || s100 <= s10 {
		t.Fatalf("sizes not increasing: %d, %d, %d", s5, s10, s100)
	}
	perServer := float64(s100-s5) / 95
	if perServer > 64 {
		t.Errorf("marginal cost %f bytes/server is implausibly large", perServer)
	}
	// Retuning must not grow the state: same servers, same size class.
	m := newTestMap(t, 5)
	base := m.SharedStateSize()
	if err := m.SetWeights(map[ServerID]float64{0: 1, 1: 30, 2: 5, 3: 70, 4: 9}); err != nil {
		t.Fatal(err)
	}
	if grew := m.SharedStateSize(); grew > 3*base {
		t.Errorf("state grew from %d to %d after one retune", base, grew)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := newTestMap(t, 4)
	good := m.Encode()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 1, 4, len(good) / 2, len(good) - 1} {
			if _, err := Decode(good[:cut]); err == nil {
				t.Errorf("Decode accepted truncation at %d", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := Decode(bad); err == nil {
			t.Error("Decode accepted bad magic")
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xde, 0xad)
		if _, err := Decode(bad); err == nil {
			t.Error("Decode accepted trailing bytes")
		}
	})
	t.Run("bit flips never panic", func(t *testing.T) {
		for i := 0; i < len(good); i++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x55
			// Either a clean error or a valid map; panics fail the test.
			if dec, err := Decode(bad); err == nil {
				if err := dec.CheckInvariants(); err != nil {
					t.Fatalf("flip at %d produced invalid map: %v", i, err)
				}
			}
		}
	})
}

func TestDecodeRejectsDoubleOwnership(t *testing.T) {
	// Hand-craft a payload where two servers claim partition 0.
	m, err := New(hashx.NewFamily(0), []ServerID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	data := m.Encode()
	// Find the second server's first full partition index and point it
	// at partition 0 as well. Layout: magic(4) seed(8) bits(1) k(4),
	// then per server: id(4) nfull(4) full... partial(4) plen(8).
	off := 4 + 8 + 1 + 4
	// Server 0 record.
	nfull0 := int(uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24)
	rec0 := 4 + 4 + 4*nfull0 + 4 + 8
	// Server 1 record: overwrite its first full index with 0 if it has one.
	s1 := off + rec0
	nfull1 := int(uint32(data[s1+4]) | uint32(data[s1+5])<<8 | uint32(data[s1+6])<<16 | uint32(data[s1+7])<<24)
	if nfull0 == 0 || nfull1 == 0 {
		t.Skip("layout has no full partitions to corrupt")
	}
	idx0 := data[off+8 : off+12]
	copy(data[s1+8:s1+12], idx0)
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted doubly-owned partition")
	}
}

// TestDecodeRejectsNonCanonicalNoPartial pins the decoder to the one
// spelling Encode uses for "no partial partition", (-1, 0): every
// accepted payload must re-encode to the same bytes.
func TestDecodeRejectsNonCanonicalNoPartial(t *testing.T) {
	m, err := New(hashx.NewFamily(0), []ServerID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	data := m.Encode()
	// Server 0's record starts after magic(4) seed(8) bits(1) k(4):
	// id(4) nfull(4) full... partial(4) plen(8).
	off := 4 + 8 + 1 + 4
	nfull := int(binary.LittleEndian.Uint32(data[off+4:]))
	at := off + 8 + 4*nfull
	if int32(binary.LittleEndian.Uint32(data[at:])) != -1 {
		t.Skip("server 0 has a partial partition; nothing to respell")
	}
	for _, c := range []struct {
		name    string
		partial int32
		plen    uint64
	}{
		{"minus-two", -2, 0},
		{"stray-length", -1, 5},
	} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[at:], uint32(c.partial))
		binary.LittleEndian.PutUint64(bad[at+4:], c.plen)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: Decode accepted a non-canonical no-partial record", c.name)
		}
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("canonical payload rejected: %v", err)
	}
}
