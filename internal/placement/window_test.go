package placement

import (
	"bytes"
	"testing"
)

// TestWindowRoundTrip: a map wrapped in a window decodes to the inner
// strategy and the window, reports the inner tag, re-encodes
// byte-identically, and is refused by Decode; a window from the map's
// own strategy and a nested window are malformed.
func TestWindowRoundTrip(t *testing.T) {
	s, err := New(StrategyChordBounded, []ServerID{0, 1, 2}, Options{HashSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner := s.Encode()
	w := Window{From: StrategyANU, Opened: 42}
	data := EncodeWindow(w, inner)
	got, gotW, err := DecodeAfter(data, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotW != w || got.Name() != StrategyChordBounded || !bytes.Equal(got.Encode(), inner) {
		t.Fatalf("decoded (%q, %+v), want (%q, %+v) with the inner bytes", got.Name(), gotW, StrategyChordBounded, w)
	}
	if tag, err := Tag(data); err != nil || tag != StrategyChordBounded {
		t.Fatalf("Tag = (%q, %v), want the inner tag", tag, err)
	}
	if _, err := Decode(data, Options{}); err == nil {
		t.Error("Decode accepted a map with an open window")
	}
	if _, plainW, err := DecodeAfter(inner, Options{}, nil); err != nil || plainW.IsOpen() {
		t.Errorf("plain snapshot decodes with window %+v, err %v", plainW, err)
	}
	for name, bad := range map[string][]byte{
		"window from itself": EncodeWindow(Window{From: StrategyChordBounded, Opened: 1}, inner),
		"nested window":      EncodeWindow(w, EncodeWindow(Window{From: StrategyChord}, inner)),
		"truncated":          data[:12],
	} {
		if _, _, err := DecodeAfter(bad, Options{}, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
