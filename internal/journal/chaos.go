package journal

import (
	"fmt"
	"sync"

	"anurand/internal/rng"
)

// Fault is one kind of injected disk damage.
type Fault int

// The injectable fault kinds. All three damage only the final frame —
// exactly the blast radius of a crash, whose unsynced tail is the only
// data that can be lost or half-written.
const (
	// FaultTorn truncates mid-payload: the frame header landed but the
	// record bytes did not all make it to the platter.
	FaultTorn Fault = iota
	// FaultShort truncates inside the frame header itself: the append
	// barely started before the power went.
	FaultShort
	// FaultBitFlip flips one random bit somewhere in the final frame:
	// the tail sector was written but rotted or was misdirected.
	FaultBitFlip
	numFaults
)

// String names the fault for logs.
func (f Fault) String() string {
	switch f {
	case FaultTorn:
		return "torn-write"
	case FaultShort:
		return "short-write"
	case FaultBitFlip:
		return "bit-flip"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// ChaosStats counts injected faults by kind.
type ChaosStats struct {
	Torn, Short, BitFlips uint64
}

// ChaosJournal wraps a Journal for crash tests: it forwards the normal
// API unchanged and adds InjectTailFault, which damages the on-disk
// tail the way a crash would — a torn write, a short write, or a bit
// flip in the final record — chosen by a seeded stream so soaks replay.
//
// The wrapper deliberately couples fault injection to crash points:
// after InjectTailFault the journal must be Closed and reopened, as the
// process it models is dead. Recovery on reopen must then fall back to
// the previous intact record, never fail.
type ChaosJournal struct {
	mu    sync.Mutex
	j     *Journal
	src   *rng.Source
	stats ChaosStats
}

// NewChaos wraps a journal with a seeded fault injector.
func NewChaos(j *Journal, seed uint64) *ChaosJournal {
	return &ChaosJournal{j: j, src: rng.New(seed)}
}

// Append implements the runtime's journal interface.
func (c *ChaosJournal) Append(rec Record) error { return c.j.Append(rec) }

// LastPlacement implements the runtime's journal interface.
func (c *ChaosJournal) LastPlacement() (Record, bool) { return c.j.LastPlacement() }

// Stats forwards the underlying journal's counters.
func (c *ChaosJournal) Stats() Stats { return c.j.Stats() }

// Close closes the underlying journal.
func (c *ChaosJournal) Close() error { return c.j.Close() }

// ChaosStats returns the injected-fault counters.
func (c *ChaosJournal) ChaosStats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// InjectTailFault damages the final on-disk frame with a seeded choice
// of torn write, short write, or bit flip, and reports which. It
// returns false without touching the file when the journal holds no
// record to damage. The journal is unusable afterwards except for
// Close — the caller is simulating a crash at this instant.
func (c *ChaosJournal) InjectTailFault() (Fault, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kind := Fault(c.src.Intn(int(numFaults)))
	ok, err := c.j.injectTailFault(kind, c.src)
	if err != nil || !ok {
		return kind, ok, err
	}
	switch kind {
	case FaultTorn:
		c.stats.Torn++
	case FaultShort:
		c.stats.Short++
	case FaultBitFlip:
		c.stats.BitFlips++
	}
	return kind, true, nil
}

// injectTailFault applies one fault to the final frame.
func (j *Journal) injectTailFault(kind Fault, src *rng.Source) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.have || j.lastFrameLen <= 0 || j.size <= headerLen {
		return false, nil
	}
	frameStart := j.size - j.lastFrameLen
	switch kind {
	case FaultTorn:
		// Keep the frame header plus a strict prefix of the payload.
		payload := j.lastFrameLen - frameHeadLen
		cut := frameStart + frameHeadLen + int64(src.Intn(int(payload)))
		if err := j.f.Truncate(cut); err != nil {
			return false, fmt.Errorf("journal: inject torn write: %w", err)
		}
	case FaultShort:
		// Not even the frame header finished.
		cut := frameStart + int64(src.Intn(frameHeadLen))
		if err := j.f.Truncate(cut); err != nil {
			return false, fmt.Errorf("journal: inject short write: %w", err)
		}
	case FaultBitFlip:
		pos := frameStart + int64(src.Intn(int(j.lastFrameLen)))
		var b [1]byte
		if _, err := j.f.ReadAt(b[:], pos); err != nil {
			return false, fmt.Errorf("journal: inject bit flip: %w", err)
		}
		b[0] ^= 1 << uint(src.Intn(8))
		if _, err := j.f.WriteAt(b[:], pos); err != nil {
			return false, fmt.Errorf("journal: inject bit flip: %w", err)
		}
	default:
		return false, fmt.Errorf("journal: unknown fault kind %d", int(kind))
	}
	if err := j.f.Sync(); err != nil {
		return false, fmt.Errorf("journal: sync injected fault: %w", err)
	}
	return true, nil
}
