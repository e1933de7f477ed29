package anu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"anurand/internal/hashx"
)

// FuzzDecode hammers the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the map invariants
// and re-encode to exactly the accepted bytes. That byte identity is
// what lets a node keep an installed payload as its map's encoding.
func FuzzDecode(f *testing.F) {
	for _, seed := range mapSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		if err := dec.CheckInvariants(); err != nil {
			t.Fatalf("accepted payload violates invariants: %v", err)
		}
		if !bytes.Equal(dec.Encode(), data) {
			t.Fatalf("accepted payload does not re-encode byte-identically:\n in  %x\n out %x", data, dec.Encode())
		}
	})
}

// mapSeeds are the encoded maps both fuzz targets start from: an even
// and a weighted five-server map, an empty payload and a bare magic.
func mapSeeds(f *testing.F) [][]byte {
	m, err := New(hashx.NewFamily(3), []ServerID{0, 1, 2, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	even := m.Encode()
	if err := m.SetWeights(map[ServerID]float64{0: 1, 1: 5, 2: 2, 3: 9, 4: 4}); err != nil {
		f.Fatal(err)
	}
	return [][]byte{even, m.Encode(), {}, {0x31, 0x55, 0x4e, 0x41}}
}

// FuzzLookupBatch decodes a map from fuzzer bytes and resolves
// fuzzer-chosen keys (newline-separated) under a fuzzer-chosen probe
// budget: the batch kernel must store, key for key, the owner the
// scalar LookupDigest returns.
func FuzzLookupBatch(f *testing.F) {
	seeds := mapSeeds(f)
	for _, seed := range seeds {
		f.Add(seed, "", uint8(0))
		f.Add(seed, "a\nfileset-001\n\n/usr/share/doc\n"+strings.Repeat("k", 120), uint8(2))
		f.Add(seed, "vol01/f0000002a.dat\nx\ny\nz\nw\nv\nu\nt\ns", uint8(64))
	}
	// 600 keys span three of the kernel's 256-key chunks.
	keys := make([]string, 600)
	for i := range keys {
		keys[i] = fmt.Sprintf("vol%02d/f%08x.dat", i%64, uint32(i)*0x9e3779b1)
	}
	many := strings.Join(keys, "\n")
	for _, seed := range seeds {
		f.Add(seed, many, uint8(3))
		f.Add(seed, many, uint8(64))
	}
	f.Fuzz(func(t *testing.T, data []byte, keyList string, maxProbes uint8) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		m.SetMaxProbes(int(maxProbes))
		keys := strings.Split(keyList, "\n")
		owners := make([]ServerID, len(keys))
		resolved := m.LookupBatch(keys, owners)
		want := 0
		for i, key := range keys {
			id, _ := m.LookupDigest(hashx.Prehash(key))
			if owners[i] != id {
				t.Fatalf("key %d %q: LookupBatch owner %d, LookupDigest %d", i, key, owners[i], id)
			}
			if id != NoServer {
				want++
			}
		}
		if resolved != want {
			t.Fatalf("LookupBatch resolved %d of %d keys, want %d", resolved, len(keys), want)
		}
	})
}
