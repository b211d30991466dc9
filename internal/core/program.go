package core

// Program is an edge-centric scatter-gather computation (paper Figure 2).
//
// V is the per-vertex state type and M the update value type; both must be
// pointer-free fixed-size types so the out-of-core engine can stream them
// to storage unchanged (internal/pod enforces this at setup).
//
// Scatter and Gather are called concurrently from multiple goroutines for
// different partitions; they must only touch the vertex/update they are
// given plus immutable or atomically-updated program state.
type Program[V, M any] interface {
	// Name identifies the algorithm in stats and benchmark tables.
	Name() string
	// Init sets the initial state of a vertex (the vertex-iteration API
	// of §2.5, used for initialization).
	Init(id VertexID, v *V)
	// Scatter inspects the state of the edge's source vertex and decides
	// whether to send an update over the edge, and with what value.
	// Returning false streams the edge with no update — a "wasted" edge
	// in the paper's terminology.
	Scatter(e Edge, src *V) (M, bool)
	// Gather applies one update to the state of its destination vertex.
	Gather(dst VertexID, v *V, m M)
}

// Combiner is implemented by programs whose update values form a
// commutative semigroup: Combine(a, b) must equal Combine(b, a), and
// Combine(Combine(a, b), c) must equal Combine(a, Combine(b, c)), so that
// Gather(dst, v, Combine(a, b)) leaves the vertex in the same state as
// Gather(dst, v, a) followed by Gather(dst, v, b) — for any order and any
// grouping of the updates addressed to dst within one iteration.
//
// When a program implements Combiner, the engines pre-aggregate the update
// stream before it is shuffled and gathered (the update stream dominates
// X-Stream's cost model, §3.2): thread-private combining buffers absorb
// same-destination updates at scatter time, so fewer records cross RAM —
// and, in the out-of-core engine, fewer bytes are written to the update
// files. Nothing merges after the shuffle.
//
// Typical combiners: sum (PageRank, SpMV), min (SSSP, BFS levels, WCC
// labels), set union (HyperANF sketches). Programs whose Gather is not a
// pure semigroup action on the update value (e.g. ones that count the
// *number* of updates received) must not implement Combiner. Floating-point
// addition is accepted as associative here, exactly as the paper's own
// PageRank tolerates reduction-order rounding differences.
//
// Combining can be disabled per run (Config.NoCombine, in either engine)
// without changing results, which is how the equivalence suite proves the
// contract.
//
// A Combiner whose Combine is exactly one of the built-in ops may also
// implement CombineOp() CombineOp to say so. When M is float32, int32 or
// VertexID, both engines then merge with the op inline, in the combining
// buffer, instead of calling Combine through a func value per update; results are bit-identical, because the same
// operation runs on the same operands in the same order. Any other M still
// calls Combine. A type that overrides an embedded program's Combine must
// override CombineOp too.
type Combiner[M any] interface {
	// Combine merges two update values addressed to the same vertex.
	Combine(a, b M) M
}

// CombineOp is a built-in merge a Combiner declares its Combine to be (see
// Combiner). The zero value declares none.
type CombineOp uint8

const (
	// CombineSum is Combine(a, b) = a + b.
	CombineSum CombineOp = iota + 1
	// CombineMin is Combine(a, b) = a if a < b, else b — the expression, not
	// the builtin min, which differs on NaN and on ±0.
	CombineMin
)

// Direction selects which edge list an iteration streams.
type Direction int

const (
	// Forward streams the input edge list as-is.
	Forward Direction = iota
	// Backward streams the transposed edge list, so information flows
	// against edge direction. The engine materializes the transpose with
	// one streaming pass the first time it is needed.
	Backward
)

// DirectedProgram is implemented by programs whose iterations may stream
// the transposed edge list (e.g. the backward closure of SCC).
type DirectedProgram interface {
	// Direction returns the edge direction for the given iteration.
	Direction(iter int) Direction
}

// IterationStarter is implemented by programs that need per-iteration setup
// before the scatter phase (phase switches, random priorities, ...). It
// runs single-threaded.
type IterationStarter interface {
	StartIteration(iter int)
}

// VertexMapper is implemented by programs whose *parameters* reference
// specific vertex IDs (a BFS root, a bipartite user/item boundary, a
// subset membership predicate). Engines call MapVertices exactly once per
// run, before Init, with the assignment's translation functions — the
// identity when the partitioner does not relabel — so the program can
// convert its parameters from input IDs into the execution ID space.
// Implementations must derive the mapped values from their original
// construction parameters each call, so a program value can be reused
// across runs with different partitioners.
//
// During a relabeled run every ID a program sees — Init and Gather ids,
// edge endpoints in Scatter, VertexView iteration order — is an execution
// (relabeled) ID. Programs that never compare IDs against parameters need
// no mapping; engines restore original vertex order in results themselves.
// Implementations on a streaming hot path (per-edge membership tests)
// should use numVertices to precompute an execution-space lookup table in
// MapVertices rather than calling the translation functions per edge:
// new2old is a random access into an O(V) array when the partitioner
// relabels, exactly the access pattern the engines exist to avoid.
type VertexMapper interface {
	// MapVertices installs the input->execution (old2new) and
	// execution->input (new2old) ID translations for the coming run over
	// numVertices vertices.
	MapVertices(numVertices int64, old2new, new2old func(VertexID) VertexID)
}

// StateRemapper is implemented by programs whose per-vertex *state* holds
// vertex IDs (WCC labels, SCC component IDs). After a relabeled run the
// engine calls RemapState on every vertex before restoring original order,
// so reported states reference input IDs. Note the representative an
// ID-valued state ends up with may legitimately differ between
// partitioners (e.g. WCC picks the minimum *execution* ID of a component);
// only its component membership is partitioner-independent.
type StateRemapper[V any] interface {
	RemapState(v *V, new2old func(VertexID) VertexID)
}

// VertexView gives phase hooks streaming access to all vertex state.
// Mutations through ForEach are persisted by the engine (for the disk
// engine this means the vertex files are rewritten).
type VertexView[V any] interface {
	// NumVertices returns the vertex count.
	NumVertices() int64
	// ForEach calls fn for every vertex in id order. fn may mutate *v.
	ForEach(fn func(id VertexID, v *V))
}

// PhasedProgram is implemented by programs with their own termination or
// cross-vertex aggregation logic. EndIteration runs single-threaded after
// the gather phase; returning true terminates the computation.
//
// Programs that do not implement PhasedProgram terminate when a scatter
// phase produces no updates.
type PhasedProgram[V, M any] interface {
	Program[V, M]
	EndIteration(iter int, updatesSent int64, view VertexView[V]) (done bool)
}
