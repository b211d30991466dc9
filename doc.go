// Package xstream is a Go implementation of X-Stream, the edge-centric
// scatter-gather graph processing system of Roy, Mihailovic and Zwaenepoel
// (SOSP 2013).
//
// X-Stream processes graphs — in memory or out of core — by streaming a
// completely unordered edge list instead of sorting it and random-accessing
// it through an index. Computation state lives in the vertices; every
// iteration streams all edges (scatter, producing updates addressed to
// destination vertices), shuffles the updates to the streaming partition
// owning their destination, and streams them back in (gather). Because
// sequential bandwidth beats random-access bandwidth on every storage
// medium — roughly 500x on magnetic disk, 30x on SSD and 2-5x on RAM — this
// trade wins whenever the graph's diameter is modest, and it removes
// pre-processing entirely: X-Stream computes directly on raw edge lists.
//
// # Quick start
//
//	edges := xstream.RMAT(xstream.RMATConfig{Scale: 20, EdgeFactor: 16, Seed: 1, Undirected: true})
//	wcc := xstream.NewWCC()
//	res, err := xstream.RunMemory(edges, wcc, xstream.Config{})
//	if err != nil { ... }
//	labels := xstream.WCCLabels(res.Vertices)
//
// For graphs larger than memory, run the same program out of core:
//
//	dev, _ := xstream.NewOSDevice("scratch", "/mnt/fast/xstream")
//	res, err := xstream.RunDisk(edges, wcc, xstream.Config{
//		Device:       dev,
//		MemoryBudget: 8 << 30,
//		IOUnit:       16 << 20,
//	})
//
// Both engines take the one Config: the fields they share (Threads,
// Partitions, MaxIterations, Partitioner, NoCombine, Selective, TileEdges,
// Tracer), two only the in-memory engine reads (Fanout, NoWorkStealing)
// and nine only the out-of-core engine reads (Device, UpdateDevice,
// MemoryBudget, IOUnit, Prefix, NoPrefetch, CompressTiles, NoVerify,
// Checkpoint). Zero fields take the engine's own default: TileEdges is
// 4096 in memory and 1024 out of core, and only out of core do
// MemoryBudget (256 MiB), IOUnit (1 MiB) and UpdateDevice (Device) apply.
// MemConfig and DiskConfig are other names for Config.
//
// # Writing algorithms
//
// An algorithm is a Program[V, M]: V is the per-vertex state and M the
// update value, both fixed-size pointer-free types (they are streamed to
// storage as raw records). Implement Init (initial vertex state), Scatter
// (edge in, optional update out — reading only the source vertex), and
// Gather (apply an update to its destination vertex). Optional interfaces
// add per-iteration hooks (IterationStarter), custom termination and
// cross-vertex aggregation (PhasedProgram), and iterations over the
// transposed edge list (DirectedProgram). The eleven algorithms from the
// paper's evaluation ship ready-made; see NewWCC, NewBFS, NewSSSP,
// NewPageRank, NewSpMV, NewConductance, NewMIS, NewMCST, NewSCC, NewALS,
// NewBP and NewHyperANF.
//
// # Partitioners and the relabeling contract
//
// The paper fixes streaming partitions as equal contiguous vertex-ID
// ranges, which makes cross-partition update traffic a hostage of the
// input's vertex ordering. Both engines therefore accept a Partitioner in
// their Config (nil = NewRangePartitioner, the paper's fixed split).
// New2PSPartitioner is a locality-aware alternative in the style of 2PS
// ("2PS: High-Quality Edge Partitioning with Two-Phase Streaming",
// Mayer et al.): one
// streaming pass grows degree-weighted vertex clusters under a volume
// cap, a second phase packs the clusters into the K partitions and emits
// a vertex relabeling permutation. Partitions stay contiguous ranges, so
// the engines' sequential vertex access is untouched; the edge stream is
// rewritten through the permutation during pre-processing and results are
// mapped back before they are returned, so callers always see input IDs.
//
// 2PS beats range when the graph has community structure the input
// ordering ignores (web/social crawls delivered in arbitrary or shuffled
// order); it cannot help on inputs whose ordering is already
// locality-aware (a freshly generated R-MAT is close) and costs two extra
// streaming passes of pre-processing. The figlocality experiment in
// internal/bench quantifies the trade.
//
// New2PSVolumePartitioner switches 2PS's packing to HEP-style volume
// balance — partitions even in degree sum, not vertex count — which
// spreads the dense core and so raises cross-partition traffic on
// power-law graphs; figlocality's "2psv" row shows by how much.
//
// Programs parameterized by vertex IDs (a BFS root) implement
// VertexMapper to translate their parameters into execution ID space;
// programs whose state stores vertex IDs (WCC labels) implement
// StateRemapper so reported state references input IDs. See
// internal/core's documentation of both interfaces.
//
// # Update combining
//
// The update stream dominates X-Stream's cost model: updates are produced
// per edge, shuffled to their destination partition, and — out of core —
// written to and re-read from the update files (§3.2). A program whose
// update values form a commutative semigroup opts into pre-aggregation by
// implementing Combiner (Combine(a, b) must be commutative and
// associative): thread-private combining buffers then absorb
// same-destination updates at scatter time before they reach the shared
// stream — one record per destination per scatter task — so the gather
// phase streams, and the out-of-core engine writes, far fewer records. The
// shuffle merges nothing: combining happens once, at scatter. PageRank, SpMV (sum), SSSP, BFS, WCC (min) and HyperANF
// (sketch union) opt in; the first five also declare their Combine to be
// CombineSum or CombineMin (a CombineOp method), so the merge runs inline
// instead of calling Combine per update. Conductance does not opt in,
// because its Gather counts arriving updates rather than reducing their
// values. Combining composes
// with any Partitioner and with VertexMapper/StateRemapper untouched: it
// operates on execution-space destination IDs after the relabeling, and
// never changes which updates exist logically — only how many records
// carry them. Set Config.NoCombine (or cmd/xstream's
// -combine=false) to disable it per run; the equivalence suite runs every
// combining algorithm both ways to prove results are identical, and the
// figcombine experiment measures the update-stream volume saved (~80-90%
// for PageRank on RMAT graphs).
//
// # Selective streaming
//
// Streaming every edge every iteration is X-Stream's deliberate trade, and
// its worst case is a traversal on a high-diameter graph: the frontier
// advances one hop per iteration while the engine re-reads the entire edge
// list (§5.3; Stats.WastedEdges). A program whose Scatter is a no-op for
// vertices whose state the last iteration's gather left unchanged opts
// into selective scheduling by implementing FrontierProgram (BFS, SSSP and
// WCC do; dense programs like PageRank must not). With
// Config.Selective set, the engines maintain an
// active-vertex frontier across iterations (an update receiver joins it
// only when its Gather changed its bytes) and skip the edge chunks of
// partitions with no active source — the out-of-core engine skips the
// edge-file reads outright — and, inside partially active partitions,
// skip fixed-size edge tiles whose source summary (indexed during the
// pre-processing shuffle) misses the frontier.
// Skips are pure elision, so results are bit-identical either way (the
// equivalence suite proves it across engines and partitioners); Stats
// reports EdgesSkipped, PartitionsSkipped and TilesSkipped. Selective
// scheduling composes with the 2PS partitioner, which packs communities —
// and therefore frontiers — into fewer partitions, making skips more
// likely; the figfrontier experiment measures both effects (28-64x fewer
// edge records and edge bytes for BFS on a clique chain).
//
// # Shared-pass execution and the serving layer
//
// X-Stream's cost model says the sequential edge stream is the dominant,
// fixed cost of a computation — which means a server running N concurrent
// jobs over the same dataset should pay that cost once per pass, not once
// per job. NewJob type-erases any Program; RunManyMemory and RunManyDisk
// drive a whole ProgramSet from one edge stream per iteration (each
// streamed chunk is scattered for every subscribing job; per-job frontiers
// skip partitions and tiles no job needs; jobs drop out as they converge),
// with Stats.CoJobs and Stats.EdgesShared proving the amortization. The
// job-independent half of a run is cached per dataset: PrepareMemory and
// PrepareDisk return immutable handles holding the partitioning plan, any
// 2PS clustering permutation, the shuffled edge chunks (in memory) or
// pre-processed partition edge files plus tile index (out of core), shared
// by every subsequent pass. Both handles have one method set (NumVertices,
// NumEdges, Partitions, Bytes, RunMany, Close; Close removes the files out
// of core and does nothing in memory), so the serving layer keeps either in
// one kind of slot. ctx cancelation is honored between iterations and
// chunks.
//
// Both engines have exactly one iteration loop between them, the shared-pass
// one (core.RunPass): RunMemory and RunDisk wrap their program with NewJob,
// run it as a ProgramSet of one and hand back typed vertex states, so a solo
// run, a type-erased run and a co-scheduled run execute the same code
// (Stats.CoJobs reads 1 for the first two), and the two engines differ only
// in how a partition's edges reach the scatter. Each job owns its update
// side — vertex state initialized in parallel, one private scatter buffer
// per engine worker, the update transport, a gather that walks partitions
// on the threads the job has to itself — and the pass owns the edge stream.
// The out-of-core engine has one dataset layer (DiskPrepared: partition
// sizing, partitioner, edge shuffle, edge files and tile index, the
// partition reader, the checkpoint format), and every run of a pass may
// spill its vertex state and updates to the device, as its share of the
// memory budget decides. The update stream
// has one transport, a windowed shuffle that spills to update files out of
// core; one conformance suite (internal/transport/conformance) holds every
// shape of it to the same contract.
//
// On top of this sit internal/dataset (a named registry of ingested
// graphs), internal/jobs (a scheduler with memory-budget admission
// control, same-dataset batching into shared passes, per-job status and
// cancelation, and result retention), and cmd/xserve (the HTTP API:
// POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result, GET /datasets,
// GET /metrics). The figshare experiment shows K co-scheduled PageRank
// jobs streaming ~1/K the edge records — and reading ~1/K the bytes out
// of core — of K sequential runs; see examples/serving for the library
// view.
//
// # Reproducing the paper
//
// The cmd/xbench binary regenerates every table and figure of the paper's
// evaluation section on simulated storage devices calibrated to the
// paper's own measurements; see DESIGN.md and EXPERIMENTS.md.
package xstream
