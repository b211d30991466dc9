package partition2ps

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/graphgen"
)

// TestRelabelingGolden pins 2PS's relabeling bit for bit: the FNV-64a hash
// of every relabeled ID, in original-ID order, for fixed inputs and K.
// Persisted plans, the benchmark's clique chain and every 2ps row of the
// equivalence matrix depend on this permutation; a change to clustering or
// packing that moves one vertex fails here first. Update the hashes only
// with a deliberate change to the policy.
func TestRelabelingGolden(t *testing.T) {
	rmat := graphgen.RMAT(graphgen.RMATConfig{Scale: 12, EdgeFactor: 16, Seed: 7})
	chain := graphgen.CliqueChain(48, 12, 1)
	for _, tc := range []struct {
		name string
		src  core.EdgeSource
		k    int
		want uint64
	}{
		{"rmat12-k8", rmat, 8, 0xad239cc7a1946f19},
		{"rmat12-k64", rmat, 64, 0x192cba6be5446401},
		{"chain48x12-k8", chain, 8, 0xa211ae0ca1e13e15},
		{"chain48x12-k64", chain, 64, 0x3a6d09dcfd3da68d},
	} {
		asg, err := New().Assign(tc.src, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if int64(len(asg.Relabel)) != tc.src.NumVertices() {
			t.Fatalf("%s: %d relabeled IDs for %d vertices", tc.name, len(asg.Relabel), tc.src.NumVertices())
		}
		h := fnv.New64a()
		var b [4]byte
		for _, id := range asg.Relabel {
			binary.LittleEndian.PutUint32(b[:], uint32(id))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: relabeling hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
