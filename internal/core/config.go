package core

import (
	"context"
	"runtime"

	"repro/internal/storage"
)

// Config tunes a run of either edge placement: in memory (memengine, §4:
// the edges live in RAM, partitions are sized to the CPU cache) or out of
// core (diskengine, §3: the edges live in partition files on a device,
// partitions are sized to the memory budget). The zero value auto-sizes
// everything the way the paper describes. Fields marked "in memory" or
// "out of core" are read by that placement only; the other ignores them.
// Each placement fills its own defaults before a run.
type Config struct {
	// Threads is the number of worker threads. 0 means GOMAXPROCS.
	Threads int
	// Partitions forces the partition count (must be a power of two).
	// 0 means automatic: from the cache size and the vertex footprint in
	// memory (§4), from the N/K + 5·S·K ≤ M inequality out of core (§3.4).
	Partitions int
	// MaxIterations bounds the scatter-gather loop as a safety net.
	// 0 means 1<<20.
	MaxIterations int
	// Partitioner chooses how vertices map to streaming partitions. nil
	// means RangePartitioner (the paper's fixed contiguous split).
	// Locality-aware partitioners relabel vertices during pre-processing;
	// the engines still return vertex states in original input order.
	// The partitioner's own working state is O(V) in memory, the same
	// order as one iteration's vertex windows.
	Partitioner Partitioner
	// NoCombine disables update combining even when the program
	// implements Combiner; used by ablation benchmarks and the
	// combiner-equivalence tests.
	NoCombine bool
	// Selective enables frontier-aware selective streaming for programs
	// implementing FrontierProgram: the engine keeps an active-vertex
	// bitset across iterations (a vertex is active iff an update it
	// received last iteration changed its state) and skips the edges of
	// any partition with no active source and, inside partially active
	// partitions, any fixed-size tile whose source summary holds no
	// active vertex; out of core the skipped edges are not read, and a
	// partition whose update file is empty skips its gather. By the
	// FrontierProgram contract every skipped edge would have produced no
	// update, so results are identical with Selective on or off;
	// Stats.EdgesSkipped / PartitionsSkipped / TilesSkipped measure the
	// elided work. Ignored for programs without the contract (and for
	// PhasedPrograms, whose EndIteration hook can activate vertices the
	// update stream never saw).
	Selective bool
	// TileEdges is the tile granularity (edge records) of selective
	// skipping. 0 means the placement's default. In memory that is 4096:
	// a skipped tile saves no read, only a scan, and 1024-record tiles
	// made the serving workload's shared passes slower with the per-tile
	// test they add. Out of core it is 1024, about half the edges of one
	// of the 48-vertex cliques 2PS packs together: a selective BFS over
	// such a chain then streams 1.9x its edge records per job, against
	// 4.7x at 4096, while compressed tiles stay as small (CompressedRatio
	// 0.699 on RMAT-16 at both) and a record decodes within 10 % of
	// 4096's cost.
	TileEdges int
	// Tracer receives run → iteration → phase → partition spans. nil
	// (the default) disables tracing; a Tracer never changes any work
	// metric, only observes timing (the figobs experiment gates this).
	Tracer Tracer

	// Fanout forces the shuffler fanout (power of two >= 2) of the
	// pre-processing and update shuffles, in memory. 0 means automatic,
	// from the cache line count (§4.2). The layout is the same at any
	// fanout. Out of core the shuffle is one stage of fanout K.
	Fanout int
	// NoWorkStealing statically assigns partitions to threads instead of
	// letting idle threads claim the next unprocessed partition, in
	// memory. Only used by the work-stealing ablation benchmark.
	NoWorkStealing bool

	// Device holds the partition files (vertices + edges) and, unless
	// UpdateDevice is set, the update files too. Required out of core.
	Device storage.Device
	// UpdateDevice, if non-nil, holds the update files so edge reads and
	// update writes proceed on different devices in parallel (§3.3,
	// evaluated in Figure 15 as "independent disks"). Out of core.
	UpdateDevice storage.Device
	// MemoryBudget is the main-memory budget M of §3.4, out of core.
	// 0 means 256 MiB. It sizes the partition count by N/K + 5·S·K ≤ M
	// and decides whether vertices spill — the J runs of a pass share it,
	// so a run's state spills when nv·|V| + 5·S·K > M/J — and that is all
	// it covers: one partition's vertex window plus five stream buffers
	// of S·K bytes (two edge input, three update output, the third made
	// only once an iteration's updates outgrow one). RunMany over a graph
	// sizes K for its J runs, each with its own vertex window and update
	// buffers next to the shared edge buffers: ΣN/K + (2 + 3·J)·S·K ≤ M.
	// Prepare sizes K for one run of 16-byte state, so a pass of several
	// jobs over a cached handle splits M only in the spill decision.
	// Outside the sum, and not limited by M: the update read-back double
	// buffer (2·S·K per gather worker, once updates spill to files), the
	// gather sub-shuffle pair (2·S·K, with spilled vertices and
	// Threads > 1), each run's scatter kernel (~0.8 MiB with a Combiner),
	// the frontier bitsets and the tile index.
	MemoryBudget int64
	// IOUnit is S of §3.4, the request size that saturates the device,
	// out of core. 0 means 1 MiB (the paper uses 16 MiB on real hardware;
	// scaled-down graphs use scaled-down units).
	IOUnit int
	// Prefix namespaces the run's files on the device, out of core.
	Prefix string
	// NoPrefetch disables the second input/output buffers (prefetch
	// distance 0) out of core; used by the prefetch ablation benchmark.
	NoPrefetch bool
	// CompressTiles stores the partition edge files as encoded tiles
	// (internal/tilecodec: sources bit-packed within each 64-record
	// block's span, exploiting the relabeling's locality, varint
	// targets, raw fallback when compression doesn't pay) instead of
	// raw records, out of core.
	// Decoding reproduces the exact record stream, so results are
	// bit-identical to the raw layout while physical edge-file reads
	// shrink: Stats.BytesRead then reports physical traffic,
	// BytesReadLogical the decoded volume, and
	// TilesCompressed/CompressedRatio the layout (see the figcompress
	// experiment). Composes with Selective — the tile index doubles as
	// the skip index.
	CompressTiles bool
	// NoVerify disables read-path checksum verification of on-disk
	// artifacts (edge tiles, update streams, spilled vertex windows), out
	// of core. Verification is on by default: every byte the iteration
	// loop reads back is covered by a CRC32C recorded when it was
	// written, and a mismatch surfaces as storage.ErrCorrupted — never a
	// wrong result. The figchecksum experiment uses this ablation to
	// measure overhead.
	NoVerify bool
	// Checkpoint persists a checksummed snapshot (vertex state, frontier,
	// iteration number) on the device after every completed iteration,
	// out of core, so a faulted or killed run restarted with the same
	// Prefix resumes from the last completed iteration instead of from
	// scratch. Snapshots double-buffer across two files, are removed when
	// the run completes, and are ignored (never trusted) when their
	// checksum or identity does not match.
	Checkpoint bool
}

// Defaults returns c with the defaults both placements share filled in:
// Threads (GOMAXPROCS), MaxIterations (1<<20) and TileEdges, whose
// default tileEdges is the placement's own.
func (c Config) Defaults(tileEdges int) Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1 << 20
	}
	if c.TileEdges <= 0 {
		c.TileEdges = tileEdges
	}
	return c
}

// Prepared is a graph ingested once for one edge placement — its edges
// shuffled into partitions in RAM (memengine.Prepared) or into partition
// files on a device (diskengine.Prepared) — and shared, read-only, by any
// number of RunMany passes.
type Prepared interface {
	// NumVertices returns the prepared graph's vertex count.
	NumVertices() int64
	// NumEdges returns the prepared graph's edge record count.
	NumEdges() int64
	// Partitions returns the shared partition count.
	Partitions() int
	// Bytes returns the handle's resident memory footprint.
	Bytes() int64
	// RunMany drives every job of set from one edge stream per
	// iteration and returns each job's result and the pass's stats.
	RunMany(ctx context.Context, set ProgramSet) ([]JobResult, Stats, error)
	// Close releases what the handle holds outside the Go heap (the
	// partition files on a device); in memory it does nothing.
	Close()
}
