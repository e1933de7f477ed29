package anu

import (
	"bytes"
	"testing"

	"anurand/internal/hashx"
)

// FuzzDecode hammers the wire decoder with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the map invariants
// and re-encode to exactly the accepted bytes. That byte identity is
// what lets a node keep an installed payload as its map's encoding.
func FuzzDecode(f *testing.F) {
	m, err := New(hashx.NewFamily(3), []ServerID{0, 1, 2, 3, 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.Encode())
	if err := m.SetWeights(map[ServerID]float64{0: 1, 1: 5, 2: 2, 3: 9, 4: 4}); err != nil {
		f.Fatal(err)
	}
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x55, 0x4e, 0x41})

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
