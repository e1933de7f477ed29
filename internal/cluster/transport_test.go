package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"anurand/internal/delegate"
)

func TestFrameRoundTrip(t *testing.T) {
	in := delegate.Message{
		Kind:    delegate.MsgMap,
		From:    3,
		To:      1,
		Epoch:   0xfedcba9876543210,
		Round:   math64(),
		Payload: []byte("payload bytes"),
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.From != in.From || out.To != in.To || out.Epoch != in.Epoch || out.Round != in.Round {
		t.Fatalf("header round trip %+v -> %+v", in, out)
	}
	if !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload round trip %q -> %q", in.Payload, out.Payload)
	}
}

func TestFrameRejectsWrongVersion(t *testing.T) {
	for _, ver := range []byte{1, 2, 3, 4, 6, 0xff} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, delegate.Message{Kind: delegate.MsgReport, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[0] = ver // an old-protocol peer (or garbage) on the wire
		_, err := readFrame(bytes.NewReader(raw), 1<<10)
		if err == nil {
			t.Fatalf("frame version %d accepted", ver)
		}
		if !errors.Is(err, errFrameVersion) {
			t.Fatalf("version %d: err = %v, want errFrameVersion", ver, err)
		}
	}
}

// v4Frame builds a frame in the v4 layout: the v5 header with a flags
// byte after the kind.
func v4Frame(kind delegate.MsgKind, flags uint8, from, to delegate.NodeID, epoch, round uint64, payload []byte) []byte {
	v4 := make([]byte, 31+len(payload))
	v4[0] = 4
	v4[1] = byte(kind)
	v4[2] = flags
	binary.LittleEndian.PutUint32(v4[3:7], uint32(from))
	binary.LittleEndian.PutUint32(v4[7:11], uint32(to))
	binary.LittleEndian.PutUint64(v4[11:19], epoch)
	binary.LittleEndian.PutUint64(v4[19:27], round)
	binary.LittleEndian.PutUint32(v4[27:31], uint32(len(payload)))
	copy(v4[31:], payload)
	return v4
}

// TestFrameRejectsV4Layout feeds readFrame a frame built with the v4
// layout (a flags byte after the kind) — the interop case the version
// byte exists for. The frame must be rejected as a version error, never
// misinterpreted.
func TestFrameRejectsV4Layout(t *testing.T) {
	v4 := v4Frame(delegate.MsgMap, 1, 3, 1, 7, 9, []byte("v4 payload"))
	if _, err := readFrame(bytes.NewReader(v4), 1<<10); !errors.Is(err, errFrameVersion) {
		t.Fatalf("v4 frame: err = %v, want errFrameVersion", err)
	}
}

// TestFrameRejectsV2Layout feeds readFrame a frame built by a v2 peer.
// The v2 layout is v5's, so only the version byte tells them apart: the
// frame must be rejected as a version error, never misinterpreted.
func TestFrameRejectsV2Layout(t *testing.T) {
	payload := []byte("v2 payload")
	v2 := make([]byte, 30+len(payload))
	v2[0] = 2
	v2[1] = byte(delegate.MsgMap)
	binary.LittleEndian.PutUint32(v2[2:6], 3)
	binary.LittleEndian.PutUint32(v2[6:10], 1)
	binary.LittleEndian.PutUint64(v2[10:18], 7)
	binary.LittleEndian.PutUint64(v2[18:26], 9)
	binary.LittleEndian.PutUint32(v2[26:30], uint32(len(payload)))
	copy(v2[30:], payload)
	if _, err := readFrame(bytes.NewReader(v2), 1<<10); !errors.Is(err, errFrameVersion) {
		t.Fatalf("v2 frame: err = %v, want errFrameVersion", err)
	}
}

// math64 returns a round value exercising all eight bytes.
func math64() uint64 { return 0x0123456789abcdef }

func TestFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	msg := delegate.Message{Kind: delegate.MsgReport, Payload: make([]byte, 64)}
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(&buf, 16); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameShortRead(t *testing.T) {
	if _, err := readFrame(bytes.NewReader([]byte{1, 2, 3}), 1<<10); err == nil {
		t.Fatal("truncated header accepted")
	}
	var buf bytes.Buffer
	msg := delegate.Message{Kind: delegate.MsgReport, Payload: []byte("abcdef")}
	if err := writeFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := readFrame(bytes.NewReader(trunc), 1<<10); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestAddressBook(t *testing.T) {
	book := NewAddressBook()
	if _, ok := book.Get(1); ok {
		t.Fatal("empty book resolved an address")
	}
	book.Set(1, "127.0.0.1:1000")
	book.Set(2, "127.0.0.1:2000")
	book.Set(1, "127.0.0.1:1001") // re-registration (restart on a new port)
	if addr, ok := book.Get(1); !ok || addr != "127.0.0.1:1001" {
		t.Fatalf("Get(1) = %q/%v", addr, ok)
	}
	if addr, ok := book.Get(2); !ok || addr != "127.0.0.1:2000" {
		t.Fatalf("Get(2) = %q/%v", addr, ok)
	}
	if _, ok := book.Get(3); ok {
		t.Fatal("Get(3) resolved an unregistered node")
	}
}
