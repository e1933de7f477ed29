// Package placement is the pluggable placement-strategy layer: one
// interface over every scheme that can map workload keys to servers,
// plus a registry and a tagged binary codec so the networked runtime,
// the journal, and the wire protocol are policy-agnostic.
//
// The paper's argument is comparative — ANU randomization against
// simple randomization, prescient assignment, and virtual processors —
// and the comparison only means something when every scheme runs under
// the same machinery. A Strategy is exactly the contract the delegate
// protocol needs from a placement scheme:
//
//   - a pure lookup (single and batched) from key to owning server,
//   - one feedback step per tuning round from the delegate's collected
//     latency/request reports,
//   - membership lifecycle (fail, recover, add, remove),
//   - a binary snapshot — the system's entire replicated state — with a
//     strategy tag so no layer ever installs bytes from a different
//     scheme, and
//   - the shared-state size that scheme replicates, the scalability
//     currency of the paper's Figure 8.
//
// Snapshot tagging is backward compatible by construction: the ANU
// strategy's encoding is byte-identical to anu.Map.Encode — its "ANU1"
// wire magic doubles as its strategy tag — so pre-existing journals,
// version-2 wire frames, and golden fixtures decode unchanged. Every
// other strategy wraps its payload in the tagged container written by
// EncodeTagged, whose distinct magic cannot collide with an ANU map.
package placement

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"anurand/internal/anu"
	"anurand/internal/hashx"
)

// ServerID identifies a server; it is the same identifier space as
// package anu's (and the delegate protocol's NodeID).
type ServerID = anu.ServerID

// NoServer marks "no placement possible" (every server failed).
const NoServer = anu.NoServer

// Report is one server's performance sample for a tuning interval, as
// collected by the delegate.
type Report = anu.Report

// Strategy is one placement scheme, in the embeddable form the cluster
// runtime publishes through its RCU snapshot pointer.
//
// Concurrency contract: read methods (LookupDigest, LookupBatch,
// Shares, Servers, Has, Encode, SharedStateSize) must be safe to call
// concurrently with each other on an immutable instance. Mutators (Tune,
// AddServer, RemoveServer, Fail, Recover) are serialized by the caller,
// which clones before mutating and publishes only on success — a
// Strategy never needs internal locking.
type Strategy interface {
	// Name returns the registered strategy tag ("anu", "chord",
	// "chord-bounded", ...). Encodings carry it; mixing tags is an error
	// at every decode boundary.
	Name() string

	// LookupDigest is the strategy's one lookup: it returns the server
	// responsible for a key pre-hashed with hashx.Prehash, and the
	// number of data-structure probes spent (hash probes for ANU, ring
	// probes for chord). The digest is the per-key half of every family
	// hash, so callers that cache digests (the simulator's KeySet)
	// skip the per-byte pass. id is NoServer only when every server
	// has failed. It must not allocate.
	LookupDigest(d hashx.Digest) (id ServerID, probes int)
	// LookupBatch resolves keys[i] into owners[i] against this one
	// placement state, returning how many keys resolved; unresolved
	// entries are set to NoServer. owners must be at least as long as
	// keys. It must return the owners LookupDigest gives and must not
	// allocate. ANU runs its map's batch kernel; the other strategies
	// share lookupBatch.
	LookupBatch(keys []string, owners []ServerID) int

	// Tune applies one feedback round from the delegate's reports and
	// says whether the placement changed. Reports may cover a subset of
	// members; a report with Failed set marks that server down, and a
	// live report from a currently failed member re-admits it.
	Tune(reports []Report) (changed bool, err error)

	// AddServer commissions a new member; RemoveServer decommissions
	// one. Fail marks a member down without removing it; Recover
	// re-admits a failed member.
	AddServer(id ServerID) error
	RemoveServer(id ServerID) error
	Fail(id ServerID) error
	Recover(id ServerID) error

	// Servers returns the member ids in ascending order, including
	// failed members.
	Servers() []ServerID
	// Has reports membership (failed members included).
	Has(id ServerID) bool
	// Shares returns each member's fraction of the key space (live
	// fractions sum to 1; failed members report 0).
	Shares() map[ServerID]float64

	// Encode serializes the strategy's placement state — the system's
	// entire replicated state — in its tagged wire form. Decode with
	// the package Decode.
	Encode() []byte
	// SharedStateSize is len(Encode()).
	SharedStateSize() int

	// Clone returns a deep copy for RCU publication: the caller mutates
	// the clone and publishes it, so readers of the original never see a
	// partial update.
	Clone() Strategy
}

// Invariants is the optional self-check capability. Strategies that can
// verify their internal consistency implement it; callers use it after
// decoding untrusted bytes and in tests.
type Invariants interface {
	CheckInvariants() error
}

// Lookup returns the server responsible for key under s. ok is false
// only when every server has failed.
func Lookup(s Strategy, key string) (id ServerID, ok bool) {
	id, _ = s.LookupDigest(hashx.Prehash(key))
	return id, id != NoServer
}

// LookupProbes is Lookup plus the number of data-structure probes spent.
func LookupProbes(s Strategy, key string) (id ServerID, probes int, ok bool) {
	id, probes = s.LookupDigest(hashx.Prehash(key))
	return id, probes, id != NoServer
}

// lookupBatch is the LookupBatch the strategies without a batch kernel
// share: keys[i] resolves into owners[i] through s.LookupDigest.
func lookupBatch(s Strategy, keys []string, owners []ServerID) int {
	if len(owners) < len(keys) {
		panic(fmt.Sprintf("placement: LookupBatch: %d owners for %d keys", len(owners), len(keys)))
	}
	resolved := 0
	for i, key := range keys {
		id, _ := s.LookupDigest(hashx.Prehash(key))
		owners[i] = id
		if id != NoServer {
			resolved++
		}
	}
	return resolved
}

// StateAdopter is the optional warm-state handoff capability: when a
// node replaces its published strategy with a freshly decoded one (a
// delegate install), AdoptState lets the new instance inherit
// soft state — e.g. the ANU controller's latency EWMA — from the
// instance it supersedes. Adopting from an incompatible strategy is a
// no-op.
type StateAdopter interface {
	AdoptState(prev Strategy)
}

// Reweigher is the optional capacity-knowledge capability: strategies
// that place by per-server weight implement it so callers can install
// updated speed estimates at runtime (the policy layer refreshes
// weights from measured server speeds each tuning round). SetWeights is
// a partial update — listed servers take the new weight, absent servers
// keep theirs — and must validate before mutating, leaving the strategy
// untouched on error. Like all mutators it is called on a clone under
// the RCU discipline, never on a published instance.
type Reweigher interface {
	// Weights returns the current per-server capacity weights.
	Weights() map[ServerID]float64
	// SetWeights applies a partial weight update. Weights must be
	// finite and > 0, and every listed server must be a member.
	SetWeights(weights map[ServerID]float64) error
}

// Options carries construction-time configuration for strategies. Each
// strategy reads the fields it understands and ignores the rest, so one
// Options value can configure any registered strategy.
type Options struct {
	// HashSeed seeds the agreed-upon hash family when building a fresh
	// strategy. All nodes that share a placement must use the same seed.
	// Decoding recovers the seed from the snapshot instead.
	HashSeed uint64
	// Controller configures the ANU feedback controller ("anu"). The
	// zero value means DefaultControllerConfig.
	Controller anu.ControllerConfig
	// LoadBound is the bounded-load factor c for "chord-bounded": no
	// server should carry more than c times the mean per-server request
	// rate. Zero means DefaultLoadBound; values must exceed 1.
	LoadBound float64
	// Weights carries per-server capacity weights — the paper's a-priori
	// knowledge of relative server speeds — for the weight-aware
	// strategies ("rendezvous", "weighted-static", "power-of-d"). The
	// zero value means uniform capacity; absent servers default to
	// weight 1. Weights are encoded into each weight-aware strategy's
	// tagged snapshot, so they survive the journal, the wire frame, and
	// live migration; a weight listed for a server outside the member
	// set is a construction error. Strategies without capacity knowledge
	// (anu, chord) ignore the field.
	Weights map[ServerID]float64
	// Choices is the d of the "power-of-d" sampler. Zero means
	// DefaultChoices; values must lie in [1, MaxChoices].
	Choices int
}

// DefaultLoadBound is the bounded-load factor used when Options leaves
// it zero — the c = 1.25 operating point of the bounded-load consistent
// hashing literature.
const DefaultLoadBound = 1.25

// Factory builds one strategy family: fresh construction over a server
// set, and decoding of its tagged snapshot.
type Factory struct {
	// New builds a fresh strategy over the given servers (all live,
	// balanced cold start).
	New func(servers []ServerID, opts Options) (Strategy, error)
	// Decode reconstructs a strategy from bytes produced by its Encode.
	// Implementations must validate everything; the bytes may come from
	// disk or the network. prev is the placement the result will
	// supersede, or nil: a decoder may share prev's immutable parts
	// where the bytes describe the same ones, and must return what a
	// decode with nil prev returns.
	Decode func(data []byte, opts Options, prev Strategy) (Strategy, error)
}

var (
	regMu     sync.RWMutex
	factories = make(map[string]Factory)
)

// validTagName reports whether a strategy name can round-trip the
// tagged container header: 1–255 bytes, every byte printable ASCII
// (0x21–0x7e). The container stores the name as raw bytes behind a
// uint8 length, so anything in that range round-trips; control bytes,
// spaces, and non-ASCII are rejected because they make tags ambiguous
// in logs, CLI flags, and golden-file names.
func validTagName(name string) bool {
	if name == "" || len(name) > 255 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x21 || name[i] > 0x7e {
			return false
		}
	}
	return true
}

// Register adds a strategy to the registry under its tag. It panics on
// a duplicate, empty, over-long, or non-printable name (registration is
// init-time programmer input). Tags are bounded at 255 bytes by the
// container encoding and restricted to printable ASCII so they
// round-trip the container header, CLI flags, and filenames.
func Register(name string, f Factory) {
	if !validTagName(name) {
		panic(fmt.Sprintf("placement: invalid strategy name %q", name))
	}
	if f.New == nil || f.Decode == nil {
		panic(fmt.Sprintf("placement: strategy %q registered without New/Decode", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("placement: strategy %q registered twice", name))
	}
	factories[name] = f
}

// Names returns the registered strategy tags in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup returns the factory for a tag.
func lookup(name string) (Factory, error) {
	regMu.RLock()
	f, ok := factories[name]
	regMu.RUnlock()
	if !ok {
		return Factory{}, fmt.Errorf("placement: unknown strategy %q (registered: %v)", name, Names())
	}
	return f, nil
}

// New builds a fresh strategy by registered name.
func New(name string, servers []ServerID, opts Options) (Strategy, error) {
	f, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return f.New(servers, opts)
}

// The tagged container wraps every non-ANU strategy snapshot:
//
//	magic   uint32  ("PLC1")
//	nameLen uint8
//	name    nameLen bytes (the strategy tag)
//	payload rest (strategy-owned)
//
// ANU snapshots are NOT wrapped: their own "ANU1" magic is the tag, so
// the bytes stay identical to what pre-placement-layer versions wrote
// to journals and wire frames.
const containerMagic = 0x504c4331 // "PLC1"

// anuMagic mirrors the anu package's wire magic for tag sniffing.
const anuMagic = 0x414e5531 // "ANU1"

// EncodeTagged wraps a strategy payload in the tagged container.
// Strategies other than ANU call it from their Encode.
func EncodeTagged(name string, payload []byte) []byte {
	if !validTagName(name) {
		panic(fmt.Sprintf("placement: invalid tag %q", name))
	}
	buf := make([]byte, 0, 5+len(name)+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, containerMagic)
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	buf = append(buf, payload...)
	return buf
}

// DecodeTagged splits a tagged container into its tag and payload.
func DecodeTagged(data []byte) (name string, payload []byte, err error) {
	if len(data) < 5 {
		return "", nil, fmt.Errorf("placement: tagged snapshot truncated (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != containerMagic {
		return "", nil, fmt.Errorf("placement: bad container magic %#x", binary.LittleEndian.Uint32(data))
	}
	n := int(data[4])
	if n == 0 || 5+n > len(data) {
		return "", nil, fmt.Errorf("placement: tagged snapshot name length %d exceeds %d available bytes", n, len(data)-5)
	}
	return string(data[5 : 5+n]), data[5+n:], nil
}

// Tag returns the strategy tag of an encoded snapshot without decoding
// it: "anu" for a raw ANU map, the container tag otherwise. A map that
// carries a migration window reports the tag of the strategy it serves.
func Tag(data []byte) (string, error) {
	_, inner, err := splitWindow(data)
	if err != nil {
		return "", err
	}
	return plainTag(inner)
}

// plainTag is Tag for a snapshot without a window.
func plainTag(data []byte) (string, error) {
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == anuMagic {
		return StrategyANU, nil
	}
	name, _, err := DecodeTagged(data)
	if err != nil {
		return "", fmt.Errorf("placement: snapshot is neither an ANU map nor a tagged container: %w", err)
	}
	return name, nil
}

// Decode reconstructs a strategy from an encoded snapshot, dispatching
// on its tag. The opts configure whatever the decoded strategy needs at
// runtime (e.g. the ANU controller); state that must match the encoder
// (seeds, membership, bounds) always comes from the bytes. A map that
// carries a migration window is refused: DecodeAfter returns both.
func Decode(data []byte, opts Options) (Strategy, error) {
	s, w, err := DecodeAfter(data, opts, nil)
	if err == nil && w.IsOpen() {
		return nil, fmt.Errorf("placement: snapshot carries a migration window from %q", w.From)
	}
	return s, err
}

// DecodeAfter decodes a map that supersedes prev, the placement its
// caller has installed (nil decodes cold): the strategy it serves and
// its migration window, closed for a plain snapshot. The strategy is
// what a cold decode returns; a strategy whose snapshot repeats prev's
// immutable parts reuses them instead of rebuilding them (chord keeps
// prev's ring while the seed and members are unchanged). prev is only
// read.
func DecodeAfter(data []byte, opts Options, prev Strategy) (Strategy, Window, error) {
	w, inner, err := splitWindow(data)
	if err != nil {
		return nil, Window{}, err
	}
	tag, err := plainTag(inner)
	if err != nil {
		return nil, Window{}, err
	}
	if w.From == tag {
		return nil, Window{}, fmt.Errorf("placement: %q map carries a window from itself", tag)
	}
	f, err := lookup(tag)
	if err != nil {
		return nil, Window{}, err
	}
	s, err := f.Decode(inner, opts, prev)
	if err != nil {
		return nil, Window{}, fmt.Errorf("placement: decode %q snapshot: %w", tag, err)
	}
	return s, w, nil
}
