// Package algorithms implements every graph algorithm from the paper's
// evaluation (§5.2) as an edge-centric scatter-gather Program:
//
//   - WCC     — weakly connected components (min-label propagation)
//   - SCC     — strongly connected components (forward coloring + backward
//     closure, after Salihoglu–Widom)
//   - BFS     — breadth-first search levels
//   - SSSP    — single-source shortest paths (Bellman–Ford relaxation)
//   - MCST    — minimum cost spanning tree (GHS-style Boruvka rounds)
//   - MIS     — maximal independent set (Luby's algorithm)
//   - Cond    — conductance of a vertex subset
//   - SpMV    — sparse matrix–vector multiply
//   - PageRank — damped PageRank, fixed iteration count
//   - ALS     — alternating least squares on a bipartite ratings graph
//   - BP      — loopy belief propagation, two-state MRF
//   - HyperANF — neighbourhood function / diameter estimation via
//     per-vertex HyperLogLog counters (used for Figure 13)
//
// Each program follows the X-Stream contract: all mutable state lives in
// fixed-size pointer-free vertex records, scatter never mutates the source
// vertex, gather is the only place vertex state changes during a phase, and
// cross-vertex aggregation happens in the single-threaded EndIteration hook
// over a streaming VertexView. Every program therefore runs unchanged on
// the in-memory and the out-of-core engine.
//
// Several programs piggyback a "last updated at iteration i" field in
// vertex state so scatter can cheaply decide whether to send — the edges
// that are streamed but produce no update are precisely the paper's
// "wasted edges" (Figure 12b).
//
// The frontier algorithms — BFS, SSSP, WCC — promote that field into the
// core.FrontierProgram contract (Scatter of a vertex whose state the last
// gather left unchanged is a no-op), which lets engines with Selective enabled skip
// inactive partitions and edge tiles instead of streaming them. The dense
// algorithms (PageRank, SpMV, HyperANF, Conductance, ALS, BP) scatter from
// every vertex each iteration and deliberately do not opt in; the phased
// ones (SCC, MIS, MCST) cannot, because their EndIteration hooks activate
// vertices outside the update stream.
//
// PageRank needs each vertex's out-degree before its first scatter. It
// implements core.DegreeInit and takes the degrees the engines count once,
// in pre-processing, so every one of its iterations streams the forward
// edges; SCC's backward closure is the only user of the transposed list.
package algorithms
