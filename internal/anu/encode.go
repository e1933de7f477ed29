package anu

import (
	"encoding/binary"
	"fmt"

	"anurand/internal/hashx"
)

// The wire format is what the delegate replicates to every server after
// a tuning round — the system's entire shared state. Its size is what
// Figure 8's shared-state comparison against virtual processors is
// about: ANU replicates O(k) region records regardless of how finely
// load is divided, while a VP system replicates one record per virtual
// processor.
//
// Layout (all little-endian):
//
//	magic   uint32  ("ANU1")
//	seed    uint64  hash family seed
//	bits    uint8   log2 partition count
//	k       uint32  number of servers
//	k times:
//	  id      int32
//	  nfull   uint32
//	  full    nfull * uint32 (partition indices)
//	  partial int32  (-1 if none)
//	  plen    uint64 (partial prefix ticks)
const encodeMagic = 0x414e5531 // "ANU1"

// Encode serializes the map into the replicated wire format.
func (m *Map) Encode() []byte {
	buf := make([]byte, 0, 32+16*len(m.regions))
	buf = binary.LittleEndian.AppendUint32(buf, encodeMagic)
	buf = binary.LittleEndian.AppendUint64(buf, m.family.Seed())
	buf = append(buf, byte(m.partBits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.order)))
	for _, id := range m.order {
		r := m.regions[id]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.full)))
		for _, p := range r.full {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.partial))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.partialLen))
	}
	return buf
}

// SharedStateSize returns the size in bytes of the replicated state — a
// convenience equal to len(m.Encode()).
func (m *Map) SharedStateSize() int { return len(m.Encode()) }

// Decode reconstructs a map from its wire format. The result is
// validated with CheckInvariants before being returned, so a corrupted
// or adversarial payload cannot produce an inconsistent map.
func Decode(data []byte) (*Map, error) {
	d := decoder{buf: data}
	if magic := d.u32(); magic != encodeMagic {
		return nil, fmt.Errorf("anu: Decode: bad magic %#x", magic)
	}
	seed := d.u64()
	bits := uint(d.u8())
	// Partition counts are 2^(ceil(lg k)+1); even a million-server map
	// needs only 2^21. Cap well below the allocation a hostile payload
	// could demand.
	const maxDecodeBits = 24
	if bits == 0 || bits > maxDecodeBits {
		return nil, fmt.Errorf("anu: Decode: implausible partition bits %d", bits)
	}
	k := int(d.u32())
	if k < 0 || k > 1<<20 {
		return nil, fmt.Errorf("anu: Decode: implausible server count %d", k)
	}
	m := &Map{
		partBits:  bits,
		regions:   make(map[ServerID]*region, k),
		maxProbes: DefaultMaxProbes,
	}
	m.family = hashx.NewFamily(seed)
	m.parts = make([]partInfo, 1<<bits)
	for i := range m.parts {
		m.parts[i].owner = NoServer
	}
	w := m.Width()
	for i := 0; i < k; i++ {
		id := ServerID(d.u32())
		nfull := int(d.u32())
		if nfull < 0 || nfull > len(m.parts) {
			return nil, fmt.Errorf("anu: Decode: server %d claims %d full partitions", id, nfull)
		}
		r := &region{id: id, partial: -1}
		for j := 0; j < nfull; j++ {
			p := int32(d.u32())
			if p < 0 || int(p) >= len(m.parts) {
				return nil, fmt.Errorf("anu: Decode: partition index %d out of range", p)
			}
			if m.parts[p].owner != NoServer {
				return nil, fmt.Errorf("anu: Decode: partition %d doubly owned", p)
			}
			m.parts[p] = partInfo{owner: id, occ: w}
			r.full = append(r.full, p)
			r.length += w
		}
		partial := int32(d.u32())
		plen := Ticks(d.u64())
		if partial < 0 && (partial != -1 || plen != 0) {
			// Encode writes "no partial" only as (-1, 0); accepting any
			// other spelling would let two byte strings decode to one map.
			return nil, fmt.Errorf("anu: Decode: server %d has no partial but encodes (%d, %d)", id, partial, plen)
		}
		if partial >= 0 {
			if int(partial) >= len(m.parts) {
				return nil, fmt.Errorf("anu: Decode: partial index %d out of range", partial)
			}
			if m.parts[partial].owner != NoServer {
				return nil, fmt.Errorf("anu: Decode: partition %d doubly owned", partial)
			}
			if plen == 0 || plen >= w {
				return nil, fmt.Errorf("anu: Decode: partial length %d invalid for width %d", plen, w)
			}
			m.parts[partial] = partInfo{owner: id, occ: plen}
			r.partial = partial
			r.partialLen = plen
			r.length += plen
		}
		if _, dup := m.regions[id]; dup {
			return nil, fmt.Errorf("anu: Decode: duplicate server id %d", id)
		}
		m.regions[id] = r
		m.order = append(m.order, id)
		m.total += r.length
	}
	if d.err != nil {
		return nil, fmt.Errorf("anu: Decode: %w", d.err)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("anu: Decode: %d trailing bytes", len(data)-d.off)
	}
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("anu: Decode: payload violates invariants: %w", err)
	}
	return m, nil
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("truncated at offset %d (need %d bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
