package placement

import (
	"encoding/binary"
	"fmt"
)

// Window is the migration window a placement map can carry: while it is
// open, the map serves its own strategy and also names the strategy it
// replaces, so a node still running that strategy installs it (package
// delegate). The zero Window is closed.
type Window struct {
	// From is the tag of the strategy the cluster is migrating from.
	From string
	// Opened is the round whose map opened the window.
	Opened uint64
}

// IsOpen reports whether w names a strategy being migrated from.
func (w Window) IsOpen() bool { return w.From != "" }

// The window container wraps the snapshot of the strategy a map serves:
//
//	magic   uint32  ("WIN1")
//	opened  uint64
//	fromLen uint8
//	from    fromLen bytes (the tag migrated from)
//	inner   rest (a plain snapshot)
//
// It is not a Strategy and not in the registry: a map that carries it
// serves the inner snapshot, and a closed window is never wrapped, so a
// plain snapshot's bytes are what they were before windows existed.
const windowMagic = 0x57494e31 // "WIN1"

// EncodeWindow wraps the plain snapshot inner in window w. w must be
// open and its From a valid tag.
func EncodeWindow(w Window, inner []byte) []byte {
	if !validTagName(w.From) {
		panic(fmt.Sprintf("placement: invalid window tag %q", w.From))
	}
	buf := make([]byte, 0, 13+len(w.From)+len(inner))
	buf = binary.LittleEndian.AppendUint32(buf, windowMagic)
	buf = binary.LittleEndian.AppendUint64(buf, w.Opened)
	buf = append(buf, byte(len(w.From)))
	buf = append(buf, w.From...)
	return append(buf, inner...)
}

// splitWindow separates a map into its window and the plain snapshot
// it serves. Bytes without the window magic are a plain snapshot with
// a closed window.
func splitWindow(data []byte) (Window, []byte, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != windowMagic {
		return Window{}, data, nil
	}
	if len(data) < 13 {
		return Window{}, nil, fmt.Errorf("placement: window truncated (%d bytes)", len(data))
	}
	n := int(data[12])
	if 13+n > len(data) {
		return Window{}, nil, fmt.Errorf("placement: window tag length %d exceeds %d available bytes", n, len(data)-13)
	}
	w := Window{From: string(data[13 : 13+n]), Opened: binary.LittleEndian.Uint64(data[4:12])}
	if !validTagName(w.From) {
		return Window{}, nil, fmt.Errorf("placement: window names invalid tag %q", w.From)
	}
	return w, data[13+n:], nil
}
