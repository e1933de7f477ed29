// Package journal is the durable placement log of the cluster runtime:
// an append-only write-ahead journal of the node's installed placement
// maps, one record per install, each carrying the (view epoch, round)
// pair the placement was installed under.
//
// The paper's availability argument (Section 4.3) assumes a recovering
// server rejoins with a coherent view of the current placement. Without
// durability a restarted runtime bootstraps from the static seed
// snapshot with its round counter at zero — indistinguishable from a
// brand-new node, and one lost stale-map guard away from rolling the
// cluster backward. The journal closes that hole: the last record a
// node wrote before dying is exactly the placement, epoch and round it
// must re-enter with.
//
// File layout (all little-endian):
//
//	header  8 bytes   magic "ANUJRNL1"
//	frames  repeated  crc u32 | len u32 | payload
//	payload           epoch u64 | round u64 | map bytes
//
// The CRC is CRC-32C (Castagnoli) over the length field and the
// payload, so a bit flip in either is detected. The map bytes are the
// installed map exactly as the node received or built it: a tagged
// placement snapshot, possibly inside a live migration's window (see
// package placement). A record fully supersedes every earlier one (a
// placement map is the system's entire replicated state, a migration
// window included), which keeps compaction trivial: once the live tail
// exceeds CompactThreshold, the newest record is rewritten into a temp
// file that atomically renames over the journal.
//
// Recovery tolerates exactly the damage a crash can cause. A final
// record that is short (torn write) or CRC-corrupt (bit rot on the
// unsynced tail) is truncated away and recovery falls back to the
// previous record — never fatal. Corruption *before* the tail means
// the synced prefix lied, which no crash produces; that is a hard
// error so operators see real disk trouble instead of silent state
// loss.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Record is one durable placement install: the encoded map plus the
// (epoch, round) fence it was installed under.
type Record struct {
	Epoch uint64
	Round uint64
	Map   []byte
}

// Supersedes reports whether r is at least as new as old in the
// lexicographic (epoch, round) order that fences installs.
func (r Record) Supersedes(old Record) bool {
	if r.Epoch != old.Epoch {
		return r.Epoch > old.Epoch
	}
	return r.Round >= old.Round
}

// Options tunes a journal.
type Options struct {
	// CompactThreshold is the file size in bytes past which an append
	// triggers compaction (rewrite to the single newest record).
	// Default 1 MiB; negative disables compaction.
	CompactThreshold int64
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if o.CompactThreshold == 0 {
		o.CompactThreshold = 1 << 20
	}
	return o
}

// Stats counts what the journal has done — recovery outcomes and the
// durability work of the append path.
type Stats struct {
	// RecordsRecovered is how many intact records the opening scan
	// found (the last of which is what LastPlacement returns).
	RecordsRecovered uint64
	// TornTailsTruncated counts recoveries that had to drop a partial
	// or CRC-failing final record.
	TornTailsTruncated uint64
	// Appends counts records durably written (fsync included).
	Appends uint64
	// AppendsSkipped counts records refused because their (epoch,
	// round) was below the newest journaled pair — the journal is
	// monotonic by construction.
	AppendsSkipped uint64
	// SyncErrors counts failed writes or fsyncs.
	SyncErrors uint64
	// Compactions counts temp-file+rename rewrites.
	Compactions uint64
	// SizeBytes is the current file size.
	SizeBytes int64
}

const (
	headerLen    = 8
	frameHeadLen = 8 // crc u32 | len u32
	recordMinLen = 16
	// maxRecordLen bounds a record so a corrupt length field cannot
	// demand an absurd allocation; placement maps are O(k) bytes.
	maxRecordLen = 1 << 26
)

var (
	fileMagic  = [headerLen]byte{'A', 'N', 'U', 'J', 'R', 'N', 'L', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Journal is an open placement journal. It is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	path string
	opts Options
	f    *os.File
	size int64
	last Record
	have bool
	// lastFrameLen is the on-disk size of the final frame — where the
	// chaos injector aims its tail faults.
	lastFrameLen int64
	stats        Stats
}

// Open opens (creating if absent) the journal at path and recovers its
// records. A torn or corrupt final record is truncated away; corruption
// anywhere before the tail is a hard error.
func Open(path string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j := &Journal{path: path, opts: opts, f: f}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// recover scans the file, establishes the last intact record, and
// truncates a torn tail.
func (j *Journal) recover() error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", j.path, err)
	}
	size := info.Size()
	if size == 0 {
		// Fresh journal: stamp the header.
		if _, err := j.f.Write(fileMagic[:]); err != nil {
			return fmt.Errorf("journal: write header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync header: %w", err)
		}
		j.size = headerLen
		return nil
	}
	if size < headerLen {
		// Even the header is torn — only a crash during creation does
		// this; start over.
		return j.truncateTo(0, true)
	}
	var head [headerLen]byte
	if _, err := j.f.ReadAt(head[:], 0); err != nil {
		return fmt.Errorf("journal: read header: %w", err)
	}
	if head != fileMagic {
		return fmt.Errorf("journal: %s is not a placement journal (bad magic %x)", j.path, head)
	}

	// body holds the full frame region; journals are small by
	// construction (compaction bounds the live tail), so scanning from
	// memory keeps the torn-tail/pre-tail distinction simple.
	body := make([]byte, size-headerLen)
	if _, err := j.f.ReadAt(body, headerLen); err != nil && err != io.EOF {
		return fmt.Errorf("journal: read body: %w", err)
	}

	off := int64(0)
	for off < int64(len(body)) {
		rec, n, ok := parseFrame(body[off:])
		if !ok {
			// The frame at off is short, implausibly sized, or fails its
			// checksum. If an intact frame exists anywhere after it, the
			// synced prefix itself is damaged — a hard error, because no
			// crash corrupts data that was fsynced before later appends.
			// Otherwise everything from off on is an unsynced torn tail:
			// drop it and recover from the previous record.
			if resyncFrameAfter(body, off+1) {
				return fmt.Errorf("journal: %s: corrupt record at offset %d with intact records after it", j.path, headerLen+off)
			}
			return j.truncateTo(headerLen+off, false)
		}
		j.last, j.have = rec, true
		j.lastFrameLen = n
		j.stats.RecordsRecovered++
		off += n
	}
	j.size = headerLen + off
	return nil
}

// parseFrame attempts to decode one frame at the start of b, returning
// the record, the frame's total size, and whether it was intact.
func parseFrame(b []byte) (Record, int64, bool) {
	if int64(len(b)) < frameHeadLen {
		return Record{}, 0, false
	}
	crc := binary.LittleEndian.Uint32(b[0:4])
	n := int64(binary.LittleEndian.Uint32(b[4:8]))
	if n < recordMinLen || n > maxRecordLen || frameHeadLen+n > int64(len(b)) {
		return Record{}, 0, false
	}
	payload := b[frameHeadLen : frameHeadLen+n]
	if crc32.Update(crc32.Checksum(b[4:8], castagnoli), castagnoli, payload) != crc {
		return Record{}, 0, false
	}
	return Record{
		Epoch: binary.LittleEndian.Uint64(payload[0:8]),
		Round: binary.LittleEndian.Uint64(payload[8:16]),
		Map:   append([]byte(nil), payload[16:]...),
	}, frameHeadLen + n, true
}

// resyncFrameAfter reports whether any offset at or past from parses as
// an intact frame — the evidence that a decode failure was mid-file
// corruption rather than a torn tail. The scan carries a work budget so
// a hostile file full of plausible-looking frame headers cannot turn
// recovery quadratic; when the budget runs out the failure is treated
// as a torn tail, which recovers older (never newer-than-journaled)
// state.
func resyncFrameAfter(body []byte, from int64) bool {
	budget := int64(1 << 24) // bytes of checksum work
	for c := from; c+frameHeadLen <= int64(len(body)); c++ {
		n := int64(binary.LittleEndian.Uint32(body[c+4 : c+8]))
		if n < recordMinLen || n > maxRecordLen || c+frameHeadLen+n > int64(len(body)) {
			continue
		}
		if budget -= n; budget < 0 {
			return false
		}
		if _, _, ok := parseFrame(body[c:]); ok {
			return true
		}
	}
	return false
}

// truncateTo drops everything at and past off — the torn-tail path.
// When rewriteHeader is set the file restarts from scratch.
func (j *Journal) truncateTo(off int64, rewriteHeader bool) error {
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("journal: truncate torn tail at %d: %w", off, err)
	}
	if rewriteHeader {
		if _, err := j.f.WriteAt(fileMagic[:], 0); err != nil {
			return fmt.Errorf("journal: rewrite header: %w", err)
		}
		off = headerLen
		if err := j.f.Truncate(off); err != nil {
			return fmt.Errorf("journal: truncate after header rewrite: %w", err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync after truncate: %w", err)
	}
	if _, err := j.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek after truncate: %w", err)
	}
	j.size = off
	j.stats.TornTailsTruncated++
	return nil
}

// encodeFrame builds one on-disk frame for a record.
func encodeFrame(rec Record) []byte {
	n := recordMinLen + len(rec.Map)
	buf := make([]byte, frameHeadLen+n)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:16], rec.Epoch)
	binary.LittleEndian.PutUint64(buf[16:24], rec.Round)
	copy(buf[24:], rec.Map)
	crc := crc32.Update(crc32.Checksum(buf[4:8], castagnoli), castagnoli, buf[frameHeadLen:])
	binary.LittleEndian.PutUint32(buf[0:4], crc)
	return buf
}

// Append durably writes one record: a single buffered write of the
// framed record at the tail, then fsync. Records whose (epoch, round)
// is below the newest journaled pair are skipped — the journal is
// monotonic, so a racing stale install can never become the recovery
// point. Append triggers compaction when the file outgrows the
// threshold.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.have && !rec.Supersedes(j.last) {
		j.stats.AppendsSkipped++
		return nil
	}
	frame := encodeFrame(rec)
	if _, err := j.f.WriteAt(frame, j.size); err != nil {
		j.stats.SyncErrors++
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.stats.SyncErrors++
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.size += int64(len(frame))
	j.lastFrameLen = int64(len(frame))
	j.last, j.have = copyRecord(rec), true
	j.stats.Appends++
	if j.opts.CompactThreshold > 0 && j.size > j.opts.CompactThreshold {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the journal as header + the newest record, via
// temp file and atomic rename, so a crash at any instant leaves either
// the old journal or the new one — never a mix.
func (j *Journal) compactLocked() error {
	tmpPath := j.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		j.stats.SyncErrors++
		return fmt.Errorf("journal: compact: %w", err)
	}
	buf := append(append([]byte(nil), fileMagic[:]...), encodeFrame(j.last)...)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		j.stats.SyncErrors++
		return fmt.Errorf("journal: compact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		j.stats.SyncErrors++
		return fmt.Errorf("journal: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		j.stats.SyncErrors++
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		j.stats.SyncErrors++
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	// Make the rename itself durable.
	if dir, err := os.Open(filepath.Dir(j.path)); err == nil {
		if err := dir.Sync(); err != nil {
			j.stats.SyncErrors++
		}
		dir.Close()
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.size = int64(len(buf))
	j.lastFrameLen = int64(len(buf) - headerLen)
	j.stats.Compactions++
	return nil
}

// LastPlacement returns a copy of the newest record — the map a
// restarting node serves from — and whether one exists.
func (j *Journal) LastPlacement() (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.have {
		return Record{}, false
	}
	return copyRecord(j.last), true
}

func copyRecord(r Record) Record {
	return Record{Epoch: r.Epoch, Round: r.Round, Map: append([]byte(nil), r.Map...)}
}

// Stats returns a snapshot of the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.SizeBytes = j.size
	return s
}

// Close closes the underlying file. The journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
