package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string, opts Options) *Journal {
	t.Helper()
	j, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func rec(epoch, round uint64, payload string) Record {
	return Record{Epoch: epoch, Round: round, Map: []byte(payload)}
}

func wantLast(t *testing.T, j *Journal, want Record) {
	t.Helper()
	got, ok := j.LastPlacement()
	if !ok {
		t.Fatalf("LastPlacement() empty, want (%d, %d)", want.Epoch, want.Round)
	}
	if got.Epoch != want.Epoch || got.Round != want.Round || !bytes.Equal(got.Map, want.Map) {
		t.Fatalf("LastPlacement() = (%d, %d, %q), want (%d, %d, %q)",
			got.Epoch, got.Round, got.Map, want.Epoch, want.Round, want.Map)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{})
	if _, ok := j.LastPlacement(); ok {
		t.Fatal("fresh journal has a record")
	}
	recs := []Record{
		rec(1, 1, "map-one"),
		rec(1, 2, "map-two"),
		rec(2, 3, "map-three"),
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	wantLast(t, j, recs[2])
	if s := j.Stats(); s.Appends != 3 || s.SyncErrors != 0 {
		t.Fatalf("stats after appends: %+v", s)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, path, Options{})
	defer j2.Close()
	wantLast(t, j2, recs[2])
	if s := j2.Stats(); s.RecordsRecovered != 3 || s.TornTailsTruncated != 0 {
		t.Fatalf("recovery stats: %+v", s)
	}
}

func TestAppendMonotoneSkipsStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{})
	defer j.Close()
	if err := j.Append(rec(3, 10, "new")); err != nil {
		t.Fatal(err)
	}
	// Lower round in the same epoch, and a lower epoch with a higher
	// round, must both be refused.
	if err := j.Append(rec(3, 9, "stale-round")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(2, 99, "stale-epoch")); err != nil {
		t.Fatal(err)
	}
	wantLast(t, j, rec(3, 10, "new"))
	if s := j.Stats(); s.Appends != 1 || s.AppendsSkipped != 2 {
		t.Fatalf("stats: %+v", s)
	}
	// Equal pair re-appends (idempotent dup install), higher installs.
	if err := j.Append(rec(3, 10, "new")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(4, 1, "next-epoch")); err != nil {
		t.Fatal(err)
	}
	wantLast(t, j, rec(4, 1, "next-epoch"))
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	for name, chop := range map[string]int64{
		"mid-payload": 5,  // cut into the final record's map bytes
		"mid-header":  21, // leave only part of the final frame header
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "placement.wal")
			j := openT(t, path, Options{})
			if err := j.Append(rec(1, 1, "keep-me")); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(rec(1, 2, "torn-away")); err != nil {
				t.Fatal(err)
			}
			size := j.Stats().SizeBytes
			j.Close()
			if err := os.Truncate(path, size-chop); err != nil {
				t.Fatal(err)
			}

			j2 := openT(t, path, Options{})
			defer j2.Close()
			wantLast(t, j2, rec(1, 1, "keep-me"))
			s := j2.Stats()
			if s.TornTailsTruncated != 1 || s.RecordsRecovered != 1 {
				t.Fatalf("recovery stats: %+v", s)
			}
			// The torn bytes are gone from disk: a further append and
			// reopen must be clean.
			if err := j2.Append(rec(1, 3, "after-repair")); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3 := openT(t, path, Options{})
			defer j3.Close()
			wantLast(t, j3, rec(1, 3, "after-repair"))
			if s := j3.Stats(); s.TornTailsTruncated != 0 || s.RecordsRecovered != 2 {
				t.Fatalf("post-repair recovery stats: %+v", s)
			}
		})
	}
}

func TestRecoverTruncatesCorruptFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{})
	if err := j.Append(rec(1, 1, "keep-me")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(1, 2, "rot-me")); err != nil {
		t.Fatal(err)
	}
	size := j.Stats().SizeBytes
	j.Close()
	// Flip one bit in the final record's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], size-3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], size-3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, path, Options{})
	defer j2.Close()
	wantLast(t, j2, rec(1, 1, "keep-me"))
	if s := j2.Stats(); s.TornTailsTruncated != 1 {
		t.Fatalf("recovery stats: %+v", s)
	}
}

func TestRecoverRejectsPreTailCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{})
	if err := j.Append(rec(1, 1, "first-record-gets-damaged")); err != nil {
		t.Fatal(err)
	}
	firstEnd := j.Stats().SizeBytes
	if err := j.Append(rec(1, 2, "second-record-stays-intact")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Corrupt the FIRST record's payload while the second stays intact:
	// the synced prefix lied, which no crash produces — a hard error.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], firstEnd-2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], firstEnd-2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("pre-tail corruption accepted")
	}
}

func TestRecoverRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("foreign file accepted as a journal")
	}
}

func TestRecoverTornHeader(t *testing.T) {
	// A crash during journal creation leaves fewer than the header's 8
	// bytes; recovery starts the journal over.
	path := filepath.Join(t.TempDir(), "placement.wal")
	if err := os.WriteFile(path, []byte{'A', 'N', 'U'}, 0o644); err != nil {
		t.Fatal(err)
	}
	j := openT(t, path, Options{})
	defer j.Close()
	if _, ok := j.LastPlacement(); ok {
		t.Fatal("torn-header journal produced a record")
	}
	if err := j.Append(rec(1, 1, "fresh-start")); err != nil {
		t.Fatal(err)
	}
	wantLast(t, j, rec(1, 1, "fresh-start"))
}

func TestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{CompactThreshold: 256})
	payload := string(bytes.Repeat([]byte{'m'}, 64))
	var last Record
	for i := uint64(1); i <= 20; i++ {
		last = rec(1, i, payload)
		if err := j.Append(last); err != nil {
			t.Fatal(err)
		}
	}
	s := j.Stats()
	if s.Compactions == 0 {
		t.Fatalf("no compactions after 20 oversized appends: %+v", s)
	}
	if s.SizeBytes > 256+int64(headerLen+frameHeadLen+recordMinLen+len(payload)) {
		t.Fatalf("live tail did not shrink: %+v", s)
	}
	wantLast(t, j, last)
	j.Close()
	// No temp-file debris, and the compacted file recovers the newest
	// record alone.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compaction left temp file: %v", err)
	}
	j2 := openT(t, path, Options{})
	defer j2.Close()
	wantLast(t, j2, last)
	if s := j2.Stats(); s.RecordsRecovered == 0 || s.TornTailsTruncated != 0 {
		t.Fatalf("post-compaction recovery stats: %+v", s)
	}
}

func TestChaosJournalFaultsRecoverToPreviousRecord(t *testing.T) {
	// Every injected fault kind must leave the journal recoverable at
	// the previous record — never a failed open, never a newer record.
	for seed := uint64(1); seed <= 12; seed++ {
		path := filepath.Join(t.TempDir(), "placement.wal")
		j := openT(t, path, Options{})
		cj := NewChaos(j, seed)
		if err := cj.Append(rec(1, 1, "previous")); err != nil {
			t.Fatal(err)
		}
		if err := cj.Append(rec(2, 2, "damaged")); err != nil {
			t.Fatal(err)
		}
		kind, ok, err := cj.InjectTailFault()
		if err != nil || !ok {
			t.Fatalf("seed %d: inject: ok=%v err=%v", seed, ok, err)
		}
		j.Close()

		j2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("seed %d (%v): recovery failed: %v", seed, kind, err)
		}
		wantLast(t, j2, rec(1, 1, "previous"))
		j2.Close()
	}
}

func TestChaosJournalFaultOnEmptyJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placement.wal")
	j := openT(t, path, Options{})
	defer j.Close()
	cj := NewChaos(j, 7)
	if _, ok, err := cj.InjectTailFault(); ok || err != nil {
		t.Fatalf("fault injected into empty journal: ok=%v err=%v", ok, err)
	}
}

func TestSupersedes(t *testing.T) {
	base := Record{Epoch: 2, Round: 5}
	cases := []struct {
		e, r uint64
		want bool
	}{
		{2, 5, true}, {2, 6, true}, {3, 0, true},
		{2, 4, false}, {1, 99, false},
	}
	for _, tc := range cases {
		if got := (Record{Epoch: tc.e, Round: tc.r}).Supersedes(base); got != tc.want {
			t.Errorf("(%d,%d).Supersedes(2,5) = %v, want %v", tc.e, tc.r, got, tc.want)
		}
	}
}
