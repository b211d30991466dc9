package core

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Split is the contiguous vertex-ID layout every engine executes over:
// n vertices divided into K equal-sized ranges (§2.4: "we restrict the
// vertex sets of streaming partitions to be of equal size"). Engines always
// run over a Split; a Partitioner may first relabel vertices so that the
// contiguous ranges correspond to a locality-aware clustering.
type Split struct {
	K   int    // number of partitions
	per uint32 // vertices per partition
}

// NewSplit divides n vertices into k contiguous equal ranges.
func NewSplit(n int64, k int) Split {
	if k < 1 {
		k = 1
	}
	per := (n + int64(k) - 1) / int64(k)
	if per < 1 {
		per = 1
	}
	return Split{K: k, per: uint32(per)}
}

// Of returns the partition owning vertex v.
func (p Split) Of(v VertexID) uint32 { return uint32(v) / p.per }

// Range returns the vertex ID range [lo, hi) of partition i, clamped to n.
func (p Split) Range(i int, n int64) (lo, hi int64) {
	lo = int64(i) * int64(p.per)
	hi = lo + int64(p.per)
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// PerPartition returns the number of vertex IDs per partition.
func (p Split) PerPartition() int64 { return int64(p.per) }

// Assignment is the output of a Partitioner: the contiguous Split the
// engine executes plus the vertex relabeling that realizes it.
//
// The relabeling contract: engines rewrite every edge endpoint through
// Relabel before partitioning, run the whole computation in relabeled ID
// space, and map results back through Inverse before returning them, so
// callers always see vertex states in original input order. A nil Relabel
// (and Inverse) means the identity — the original IDs already are the
// execution IDs.
type Assignment struct {
	// Split is the contiguous range layout over relabeled IDs. It always
	// equals NewSplit(n, k) — contiguity and equal sizing are invariants,
	// not partitioner choices.
	Split Split
	// Relabel maps original vertex ID -> relabeled ID. nil = identity.
	// When non-nil it must be a permutation of [0, n).
	Relabel []VertexID
	// Inverse maps relabeled ID -> original ID. nil = identity.
	Inverse []VertexID
}

// Identity reports whether the assignment keeps original IDs.
func (a *Assignment) Identity() bool { return a.Relabel == nil }

// NewID maps an original vertex ID to its relabeled execution ID. IDs
// outside the graph map to themselves, so a nonsensical parameter (a BFS
// root beyond the vertex count) degrades exactly as it does under the
// identity assignment instead of panicking.
func (a *Assignment) NewID(v VertexID) VertexID {
	if a.Relabel == nil || int(v) >= len(a.Relabel) {
		return v
	}
	return a.Relabel[v]
}

// OldID maps a relabeled execution ID back to the original vertex ID.
// Out-of-range IDs map to themselves, mirroring NewID.
func (a *Assignment) OldID(v VertexID) VertexID {
	if a.Inverse == nil || int(v) >= len(a.Inverse) {
		return v
	}
	return a.Inverse[v]
}

// Of returns the partition owning the *original* vertex v.
func (a *Assignment) Of(v VertexID) uint32 { return a.Split.Of(a.NewID(v)) }

// Validate checks the assignment invariants for an n-vertex graph: the
// split covers [0, n), Relabel is a permutation of [0, n) and Inverse is
// its inverse (both nil counts as the identity).
func (a *Assignment) Validate(n int64) error {
	if want := NewSplit(n, a.Split.K); want != a.Split {
		return fmt.Errorf("core: assignment split %+v is not the contiguous equal split %+v", a.Split, want)
	}
	if a.Relabel == nil && a.Inverse == nil {
		return nil
	}
	if int64(len(a.Relabel)) != n || int64(len(a.Inverse)) != n {
		return fmt.Errorf("core: assignment permutation length %d/%d, want %d", len(a.Relabel), len(a.Inverse), n)
	}
	for old, nw := range a.Relabel {
		if int64(nw) >= n {
			return fmt.Errorf("core: relabel[%d] = %d out of range [0,%d)", old, nw, n)
		}
		if a.Inverse[nw] != VertexID(old) {
			return fmt.Errorf("core: inverse[relabel[%d]] = %d, not the identity", old, a.Inverse[nw])
		}
	}
	return nil
}

// CrossEdgeFraction streams src and returns the fraction of edges whose
// endpoints land in different partitions under the assignment — the
// locality metric the figlocality benchmark reports (every such edge's
// update crosses partitions in the shuffle).
func (a *Assignment) CrossEdgeFraction(src EdgeSource) (float64, error) {
	var total, cross int64
	err := src.Edges(func(batch []Edge) error {
		total += int64(len(batch))
		for _, e := range batch {
			if a.Of(e.Src) != a.Of(e.Dst) {
				cross++
			}
		}
		return nil
	})
	if err != nil || total == 0 {
		return 0, err
	}
	return float64(cross) / float64(total), nil
}

// Partitioner decides how vertices map to streaming partitions. Engines
// call Assign once during pre-processing with the edge source and the
// partition count they already sized from the memory model (§3.4, §4);
// the partitioner answers with a relabeling whose contiguous ranges are
// the partitions. Assign may stream src any number of times (EdgeSource
// is re-streamable by contract) but must be deterministic for a given
// source and k.
type Partitioner interface {
	// Name identifies the policy in stats and benchmark tables.
	Name() string
	// Assign plans the partitioning of src into k partitions.
	Assign(src EdgeSource, k int) (*Assignment, error)
}

// RangePartitioner is the paper's fixed policy: partitions are contiguous
// ranges of the *input* vertex IDs, locality entirely at the mercy of the
// input ordering. The zero value is ready to use and is what engines
// default to when Config.Partitioner is nil.
type RangePartitioner struct{}

// Name implements Partitioner.
func (RangePartitioner) Name() string { return "range" }

// Assign implements Partitioner with the identity relabeling.
func (RangePartitioner) Assign(src EdgeSource, k int) (*Assignment, error) {
	return &Assignment{Split: NewSplit(src.NumVertices(), k)}, nil
}

// PermutationPartitioner replays a previously computed relabeling
// permutation — the mechanism behind persisted assignments: an expensive
// clustering pass (2PS) is run once per dataset, its permutation is saved
// with graphio.WritePermutation, and later runs replay it here for free.
// The permutation maps original vertex ID -> relabeled ID; nil replays the
// identity. Any partition count works, because contiguous equal ranges
// over a fixed relabeling remain a valid Split for every K.
type PermutationPartitioner struct {
	name    string
	relabel []VertexID
}

// NewPermutationPartitioner wraps a saved old->new relabeling as a
// Partitioner. The name identifies the policy in stats tables.
func NewPermutationPartitioner(name string, relabel []VertexID) *PermutationPartitioner {
	if name == "" {
		name = "perm"
	}
	return &PermutationPartitioner{name: name, relabel: relabel}
}

// Name implements Partitioner.
func (p *PermutationPartitioner) Name() string { return p.name }

// Assign implements Partitioner by replaying the stored permutation.
func (p *PermutationPartitioner) Assign(src EdgeSource, k int) (*Assignment, error) {
	n := src.NumVertices()
	asg := &Assignment{Split: NewSplit(n, k)}
	if p.relabel == nil {
		return asg, nil
	}
	if int64(len(p.relabel)) != n {
		return nil, fmt.Errorf("core: saved permutation has %d entries for %d vertices", len(p.relabel), n)
	}
	inv := make([]VertexID, n)
	for old, nw := range p.relabel {
		if int64(nw) >= n {
			return nil, fmt.Errorf("core: saved permutation entry %d = %d out of range [0,%d)", old, nw, n)
		}
		inv[nw] = VertexID(old)
	}
	asg.Relabel = p.relabel
	asg.Inverse = inv
	return asg, nil
}

// RestoreOrder reorders relabeled-space vertex states back to original
// input order: out[old] = verts[relabel[old]]. A nil relabel returns verts
// unchanged.
func RestoreOrder[V any](verts []V, relabel []VertexID) []V {
	if relabel == nil {
		return verts
	}
	out := make([]V, len(verts))
	for old, nw := range relabel {
		out[old] = verts[nw]
	}
	return out
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// CacheBytes is the per-core cache share of §4: 2 MiB, the paper testbed's
// L2 share (§5.1). The in-memory engine sizes its partitions (MemPartitions)
// and its shuffle fanout (MemFanout) by it, and the combining buffer its
// dense accumulator (denseCombineBytes).
const CacheBytes = 2 << 20

// MemPartitions computes the number of streaming partitions for the
// in-memory engine (§4): the vertex *footprint* — vertex state plus the
// edge and update that reference it without displacing it — of one
// partition must fit in the CPU cache share of a core. The result is
// rounded up to a power of two, as the multi-stage shuffler requires.
func MemPartitions(numVertices int64, footprintBytes int, cacheBytes int) int {
	if cacheBytes <= 0 || numVertices <= 0 {
		return 1
	}
	total := numVertices * int64(footprintBytes)
	k := int((total + int64(cacheBytes) - 1) / int64(cacheBytes))
	return NextPow2(k)
}

// MemFanout bounds the shuffler fanout by the number of cache lines in the
// cache (§4.2): each output chunk needs a resident cache line for writes to
// stay sequential. The result is a power of two >= 2.
func MemFanout(cacheBytes, cacheLineBytes int) int {
	if cacheLineBytes <= 0 {
		cacheLineBytes = 64
	}
	lines := cacheBytes / cacheLineBytes
	if lines < 2 {
		return 2
	}
	// Round down to a power of two.
	return 1 << (bits.Len(uint(lines)) - 1)
}

// Footprint returns the §4 vertex footprint used to size in-memory
// partitions: vertex state plus one edge plus one update.
func Footprint(vertexStateBytes, updateBytes int) int {
	return vertexStateBytes + int(unsafe.Sizeof(Edge{})) + updateBytes
}
