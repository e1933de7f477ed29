package main

import (
	"fmt"
	"math/rand/v2"

	"anurand/internal/anu"
	"anurand/internal/hashx"
	"anurand/internal/placement"
)

// numKeys is the size of the seeded key set: 65,536 file names of about
// 18 bytes, ~1 MiB of key bytes, well past the placement's own state.
const numKeys = 1 << 16

// makeKeys builds the seeded key set, shuffled so consecutive batches
// share no structure.
func makeKeys(seed uint64) []string {
	r := rand.New(rand.NewPCG(seed, 0x6b657973))
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("vol%02d/f%08x.dat", r.IntN(64), r.Uint32())
	}
	return keys
}

// decodeOptions are the options every runtime in the benchmark decodes
// snapshots with.
func decodeOptions() placement.Options {
	return placement.Options{Controller: anu.DefaultControllerConfig()}
}

var sink uint64 // keeps probe results alive

// probeReps is how many times each probe repeats; probes report medians.
const probeReps = 50

// probeLayers measures hashx and placement on the workload's final
// strategy and reports, with nothing else running: the per-layer costs
// behind the request path (Prehash, LookupBatch) and the control path
// (Clone+Tune on the delegate, Encode, Decode on each follower).
func probeLayers(res *result, s placement.Strategy, reports []placement.Report, keys []string) {
	res.set("hashx.prehash_ns", timePer(20, func() {
		for _, k := range keys {
			sink ^= uint64(hashx.Prehash(k))
		}
	})/float64(len(keys)), "ns", 20)

	owners := make([]placement.ServerID, len(keys))
	res.set("placement.lookup_ns_per_key", timePer(20, func() { s.LookupBatch(keys, owners) })/float64(len(keys)), "ns", 20)

	var tuneErr error
	tune := func() {
		if _, err := s.Clone().Tune(reports); err != nil {
			tuneErr = err
		}
	}
	res.set("placement.tune_us", timePer(probeReps, tune)/1e3, "us", probeReps)
	tuneAllocs, _ := allocsPer(probeReps, tune)
	res.set("placement.tune_allocs", tuneAllocs, "count", probeReps)
	res.check(tuneErr == nil, "placement probe: Tune on %d reports: %v", len(reports), tuneErr)

	var snap []byte
	res.set("placement.encode_us", timePer(probeReps, func() { snap = s.Encode() })/1e3, "us", probeReps)
	res.set("placement.snapshot_bytes", float64(len(snap)), "bytes", 1)

	var decodeErr error
	decode := func() {
		if _, err := placement.Decode(snap, decodeOptions()); err != nil {
			decodeErr = err
		}
	}
	res.set("placement.decode_us", timePer(probeReps, decode)/1e3, "us", probeReps)
	decodeAllocs, _ := allocsPer(probeReps, decode)
	res.set("placement.decode_allocs", decodeAllocs, "count", probeReps)
	res.check(decodeErr == nil, "placement probe: Decode of its own snapshot: %v", decodeErr)
}
