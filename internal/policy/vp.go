package policy

import (
	"fmt"

	"anurand/internal/hashx"
	"anurand/internal/workload"
)

// VirtualProcessor is the virtual-processor comparison system: file sets
// are statically hashed into V = N*v virtual processors, and the virtual
// processors are mapped to servers each tuning round using the same
// perfect knowledge as prescient (Section 5.1). The workload movement
// unit is the virtual processor, so small V means coarse tuning and
// large V means a large replicated address table — the Figure 8
// trade-off.
type VirtualProcessor struct {
	fsToVP  []int32    // static: file set -> virtual processor
	vpOwner []ServerID // tuned: virtual processor -> server
	loads   []float64  // scratch: per-VP aggregated load
	search  warmSearch
}

// NewVirtualProcessor distributes the file sets over numVP virtual
// processors by hashing their names.
func NewVirtualProcessor(family hashx.Family, fileSets []workload.FileSet, numVP int) (*VirtualProcessor, error) {
	return NewVirtualProcessorKeys(family, workload.NewKeySet(fileSets), numVP)
}

// NewVirtualProcessorKeys is NewVirtualProcessor over a precomputed
// KeySet; the Figure 8 VP-count sweep reuses one digest pass for every
// value of v.
func NewVirtualProcessorKeys(family hashx.Family, keys *workload.KeySet, numVP int) (*VirtualProcessor, error) {
	if numVP <= 0 {
		return nil, fmt.Errorf("policy: NewVirtualProcessor: numVP %d must be positive", numVP)
	}
	if keys.Len() == 0 {
		return nil, fmt.Errorf("policy: NewVirtualProcessor: no file sets")
	}
	v := &VirtualProcessor{
		fsToVP:  make([]int32, keys.Len()),
		vpOwner: make([]ServerID, numVP),
		loads:   make([]float64, numVP),
	}
	for i, d := range keys.Digests {
		v.fsToVP[i] = int32(family.HashDigest(d, 0) % uint64(numVP))
	}
	for i := range v.vpOwner {
		v.vpOwner[i] = NoServer
	}
	return v, nil
}

// Name implements Placer.
func (v *VirtualProcessor) Name() string { return "vp" }

// NumVP returns the virtual processor count.
func (v *VirtualProcessor) NumVP() int { return len(v.vpOwner) }

// Place implements Placer through the two-level table.
func (v *VirtualProcessor) Place(fs int) ServerID {
	if fs < 0 || fs >= len(v.fsToVP) {
		return NoServer
	}
	return v.vpOwner[v.fsToVP[fs]]
}

// Retune implements Placer: aggregate ground-truth file-set loads per
// virtual processor and re-optimize the VP-to-server mapping.
func (v *VirtualProcessor) Retune(env *Env) error {
	if err := validateEnv(env, len(v.fsToVP), true); err != nil {
		return err
	}
	for i := range v.loads {
		v.loads[i] = 0
	}
	for fs, vp := range v.fsToVP {
		v.loads[vp] += env.FileSetLoads[fs]
	}
	v.search.retune(v.vpOwner, v.loads, env.Servers)
	return nil
}

// SharedStateSize implements Placer: the VP address table the paper
// calls out — one record per virtual processor (4-byte VP index +
// 4-byte server id) that every node must replicate to address load.
func (v *VirtualProcessor) SharedStateSize() int { return 8 * len(v.vpOwner) }
