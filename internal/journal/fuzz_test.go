package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecover feeds arbitrary bytes to recovery. Invariants:
// Open never panics; when it succeeds, the journal is immediately
// usable — a fresh record appends, survives a reopen byte-for-byte, and
// recovery of the repaired file reports no further torn tails.
func FuzzJournalRecover(f *testing.F) {
	f.Add([]byte{})
	f.Add(fileMagic[:])
	f.Add([]byte("ANUJRN"))                      // torn header
	f.Add([]byte("NOTAJRNL plus trailing junk")) // wrong magic
	// A well-formed journal with two records, and damaged variants.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.wal")
	j, err := Open(seedPath, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(Record{Epoch: 1, Round: 1, Map: []byte("seed-map-one")}); err != nil {
		f.Fatal(err)
	}
	if err := j.Append(Record{Epoch: 1, Round: 2, Map: []byte("seed-map-two")}); err != nil {
		f.Fatal(err)
	}
	j.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, Options{})
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		// An equal (epoch, round) always supersedes, so appending at the
		// recovered fence works even if fuzzed records sit at MaxUint64.
		prior, _ := j.LastPlacement()
		next := Record{Epoch: prior.Epoch, Round: prior.Round, Map: []byte("appended-after-fuzz")}
		if err := j.Append(next); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if got, ok := j.LastPlacement(); !ok || got.Epoch != next.Epoch || got.Round != next.Round || !bytes.Equal(got.Map, next.Map) {
			t.Fatalf("LastPlacement after append = %+v (ok=%v), want %+v", got, ok, next)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		defer j2.Close()
		got, ok := j2.LastPlacement()
		if !ok || got.Epoch != next.Epoch || got.Round != next.Round || !bytes.Equal(got.Map, next.Map) {
			t.Fatalf("appended record did not round-trip: %+v (ok=%v)", got, ok)
		}
		if s := j2.Stats(); s.TornTailsTruncated != 0 {
			t.Fatalf("repaired journal reported another torn tail: %+v", s)
		}
	})
}
