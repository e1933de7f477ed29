package cluster

import (
	"bytes"
	"testing"

	"anurand/internal/delegate"
)

// FuzzReadFrame feeds arbitrary bytes to the TCP framing path.
// Invariants: readFrame never panics and never allocates beyond the
// payload cap, and any frame it accepts re-encodes via writeFrame to
// bytes that parse back to the identical message.
func FuzzReadFrame(f *testing.F) {
	seed := func(msg delegate.Message) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(seed(delegate.Message{Kind: delegate.MsgReport, From: 1, To: 2, Epoch: 3, Round: 4, Payload: []byte("report")}))
	f.Add(seed(delegate.Message{Kind: delegate.MsgMap, From: -1, To: 0, Epoch: 1 << 60, Round: 1 << 40, Payload: nil}))
	hb := seed(delegate.Message{Kind: MsgHeartbeat, From: 4, To: 0, Epoch: 9, Round: 1000})
	f.Add(hb)
	f.Add(seed(delegate.Message{Kind: 0x20, From: 0, To: 3, Epoch: 5, Round: 6, Payload: []byte("mig")})) // a kind no build sends
	wrongVer := append([]byte(nil), hb...)
	wrongVer[0] = 1
	f.Add(wrongVer)
	f.Add(v4Frame(delegate.MsgMap, 1, 3, 1, 7, 9, []byte("v4 map"))) // the v4 layout, flags byte set

	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readFrame(bytes.NewReader(data), maxPayload)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if len(data) > 0 && data[0] != frameVersion {
			t.Fatalf("accepted a version %d frame", data[0])
		}
		if len(msg.Payload) > maxPayload {
			t.Fatalf("accepted payload of %d bytes beyond cap %d", len(msg.Payload), maxPayload)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		again, err := readFrame(&buf, maxPayload)
		if err != nil {
			t.Fatalf("re-read re-encoded frame: %v", err)
		}
		if again.Kind != msg.Kind || again.From != msg.From || again.To != msg.To ||
			again.Epoch != msg.Epoch || again.Round != msg.Round || !bytes.Equal(again.Payload, msg.Payload) {
			t.Fatalf("frame round trip diverged: %+v -> %+v", msg, again)
		}
	})
}
