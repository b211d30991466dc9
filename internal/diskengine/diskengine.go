// Package diskengine is X-Stream's out-of-core streaming engine (paper §3).
//
// Fast Storage is main memory, Slow Storage is the device holding the
// graph. Each streaming partition owns three files — vertices, edges,
// updates. Pre-processing is a single streaming shuffle of the unordered
// input edge list into the partition edge files; there is no sort and no
// index. Each iteration then runs the merged scatter/shuffle phase of
// Figure 6 (stream edges, append updates to a stream buffer, shuffle the
// buffer when full and append the per-partition chunks to the update
// files) followed by the gather phase (stream each partition's update file
// onto its in-memory vertex set).
//
// I/O is asynchronous with a prefetch distance of one on both input and
// output (§3.3): a dedicated goroutine reads ahead into a second input
// buffer, and a dedicated goroutine writes shuffled output buffers while
// the scatter fills the next. Both §3.2 optimizations are implemented: the
// vertex files are bypassed entirely when all vertex state fits in the
// memory budget, and the update files whenever one scatter phase's updates
// fit in a single stream buffer — the update transport's window is one
// stream buffer, and only an iteration that outgrows it spills.
//
// Every pass is driven by core.RunPass, the iteration loop of both engines,
// over one dataset layer, the Prepared: the §3.4 partition sizing, the
// partitioner and relabeling, the edge shuffle, the edge files with their
// tile index and lazily built transpose, the partition reader and the
// checkpoint all live there, and Prepared.runPass (runmany.go) supplies how
// a partition's edges reach the scatter, the checkpoint after each
// iteration and the resume before the first. The loop drives one run type,
// core.jobRun, in one configuration, and streams a partition at a time
// through each run's window sink: one kernel, whose combining window stays
// open for the whole partition, so its combining and update and device bytes
// do not depend on scheduling. Every run is lent the stores of openStores
// (stores.go) — update files behind the transport, and vertex files, read and
// gathered a window at a time, when the state does not fit the run's share
// of the memory budget. The J runs of a pass split the budget, M/J each. Run
// is RunJob with its types kept, and RunJob a RunMany of one. Bytes are counted where
// they are moved: by the reader, the checkpoint and each run's stores, so
// concurrent passes on one device report their own. IORetries is the
// exception: it is sampled from the devices' retry counters, so a pass
// reports every retry on its devices while it ran, another pass's included.
//
// Buffers are owned for the whole run, as in §3.2: the pass's edgeScratch
// is the two edge input buffers every reader borrows and the update
// transport's streambuf.Writer holds the three update output buffers, the
// third made when an iteration first spills — the five stream buffers of
// §3.4 — while the update store's drain scratch, the gather sub-shuffle pair
// and each run's scatter kernel are made on first use.
// Nothing in the iteration loop allocates per chunk, segment or partition;
// docs/ARCHITECTURE.md ("Buffer ownership") has owners and sizes.
//
// When the program implements core.Combiner the scatter's private buffers
// combine same-destination updates and every shuffled buffer is folded
// per partition before writeback, shrinking the update-file I/O that
// dominates out-of-core runs (see Config.NoCombine and the figcombine
// experiment).
//
// When the program additionally implements core.FrontierProgram and
// Config.Selective is set, the engine keeps an active-vertex frontier
// across iterations and skips I/O the frontier proves useless: a partition
// with no active source has its edge file not read at all, a partially
// active partition is read only in the segments whose tiles (indexed
// during the pre-processing edge shuffle) contain an active source, and a
// partition whose update file is empty skips its gather — including the
// vertex-file read/writeback in spill mode. Edge-file waste is the
// out-of-core engine's dominant loss case on frontier algorithms (§5.3);
// Stats.EdgesSkipped / PartitionsSkipped / TilesSkipped and the drop in
// BytesRead quantify the recovery (see the figfrontier experiment).
package diskengine

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// Config tunes the out-of-core engine.
type Config struct {
	// Device holds the partition files (vertices + edges) and, unless
	// UpdateDevice is set, the update files too. Required.
	Device storage.Device
	// UpdateDevice, if non-nil, holds the update files so edge reads and
	// update writes proceed on different devices in parallel (§3.3,
	// evaluated in Figure 15 as "independent disks").
	UpdateDevice storage.Device
	// MemoryBudget is the main-memory budget M of §3.4. 0 means 256 MiB.
	// It sizes the partition count by N/K + 5·S·K ≤ M and decides whether
	// vertices spill — the J runs of a pass share it, so a run's state
	// spills when nv·|V| + 5·S·K > M/J — and that is all it covers: one
	// partition's vertex window plus five stream buffers of S·K bytes (two
	// edge input, three update output, the third made only once an
	// iteration's updates outgrow one). RunMany over a graph sizes K for
	// its J runs, each with its own vertex window and update buffers next to
	// the shared edge buffers: ΣN/K + (2 + 3·J)·S·K ≤ M. Prepare sizes K for
	// one run of 16-byte state, so a pass of several jobs over a cached
	// handle splits M only in the spill decision. Outside the sum, and not limited by
	// M: the update read-back double buffer (2·S·K per gather worker, once
	// updates spill to files), the gather sub-shuffle pair (2·S·K, with
	// spilled vertices and Threads > 1), each run's scatter kernel
	// (~0.8 MiB with a Combiner), the fold's slot tables, the frontier
	// bitsets and the tile index.
	MemoryBudget int64
	// IOUnit is S of §3.4, the request size that saturates the device.
	// 0 means 1 MiB (the paper uses 16 MiB on real hardware; scaled-down
	// graphs use scaled-down units).
	IOUnit int
	// Threads is the worker count for in-memory work. 0 = GOMAXPROCS.
	Threads int
	// Partitions forces the partition count (power of two); 0 = auto
	// from the §3.4 inequality.
	Partitions int
	// MaxIterations bounds the loop. 0 means 1<<20.
	MaxIterations int
	// Prefix namespaces this run's files on the device.
	Prefix string
	// NoPrefetch disables the second input/output buffers (prefetch
	// distance 0); used by the prefetch ablation benchmark.
	NoPrefetch bool
	// Partitioner chooses how vertices map to streaming partitions. nil
	// means core.RangePartitioner (the paper's fixed contiguous split).
	// Locality-aware partitioners relabel vertices during pre-processing;
	// the engine still returns vertex states in original input order.
	// Note the partitioner's own working state is O(V) in memory, the
	// same order as one iteration's vertex windows.
	Partitioner core.Partitioner
	// NoCombine disables update combining even when the program
	// implements core.Combiner; used by ablation benchmarks and the
	// combiner-equivalence tests.
	NoCombine bool
	// Selective enables frontier-aware selective streaming for programs
	// implementing core.FrontierProgram: edge files of partitions with no
	// active source are not read, partially active partitions are read
	// only in their active tile segments, and update-empty partitions
	// skip gather. Results are identical with Selective on or off by the
	// FrontierProgram contract; ignored for programs without it (and for
	// PhasedPrograms, whose EndIteration can activate vertices without an
	// update).
	Selective bool
	// TileEdges is the tile granularity (edge records) of the selective
	// read index. 0 means 1024, about half the edges of one of the
	// 48-vertex cliques 2PS packs together: a selective BFS over such a
	// chain then streams 1.9x its edge records per job, against 4.7x at
	// 4096, while compressed tiles stay as small (CompressedRatio 0.699 on
	// RMAT-16 at both) and a record decodes within 10 % of 4096's cost.
	TileEdges int
	// CompressTiles stores the partition edge files as encoded tiles
	// (internal/tilecodec: delta-varint sources exploiting the
	// relabeling's locality, varint targets, raw fallback when
	// compression doesn't pay) instead of raw records. Decoding
	// reproduces the exact record stream, so results are bit-identical to
	// the raw layout while physical edge-file reads shrink:
	// Stats.BytesRead then reports physical traffic, BytesReadLogical the
	// decoded volume, and TilesCompressed/CompressedRatio the layout (see
	// the figcompress experiment). Composes with Selective — the tile
	// index doubles as the skip index.
	CompressTiles bool
	// NoVerify disables read-path checksum verification of on-disk
	// artifacts (edge tiles, update streams, spilled vertex windows).
	// Verification is on by default: every byte the iteration loop reads
	// back is covered by a CRC32C recorded when it was written, and a
	// mismatch surfaces as storage.ErrCorrupted — never a wrong result.
	// The figchecksum experiment uses this ablation to measure overhead.
	NoVerify bool
	// Checkpoint persists a checksummed snapshot (vertex state, frontier,
	// iteration number) on the device after every completed iteration, so
	// a faulted or killed run restarted with the same Prefix resumes from
	// the last completed iteration instead of from scratch. Snapshots
	// double-buffer across two files, are removed when the run completes,
	// and are ignored (never trusted) when their checksum or identity does
	// not match. Run and RunJob write the same format (checkpoint.go).
	Checkpoint bool
	// Tracer receives run → iteration → phase → partition spans. nil
	// (the default) disables tracing; a Tracer never changes any work
	// metric, only observes timing (the figobs experiment gates this).
	Tracer core.Tracer
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.IOUnit <= 0 {
		c.IOUnit = 1 << 20
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1 << 20
	}
	if c.UpdateDevice == nil {
		c.UpdateDevice = c.Device
	}
	if c.TileEdges <= 0 {
		c.TileEdges = 1024
	}
	return c
}

// edgeRecSize is the on-disk size of one edge record.
var edgeRecSize = int64(pod.Size[core.Edge]())

// Result carries final vertex states and execution statistics.
type Result[V any] = core.Result[V]

// Run executes prog on g with the out-of-core engine: RunJob of the
// program's job, its vertex states typed.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	return core.Typed[V](RunJob(context.Background(), g, core.NewJob(prog), cfg))
}

// retries is the cumulative retry count of c's devices, a distinct update
// device's included.
func (c Config) retries() int64 {
	var n int64
	if c.Device != nil {
		n = c.Device.Stats().Retries
	}
	if c.UpdateDevice != nil && c.UpdateDevice != c.Device {
		n += c.UpdateDevice.Stats().Retries
	}
	return n
}

// basePrivCap is the capacity (records) of a scatter kernel's private append
// buffer; core.DegreeAwareBufRecs scales the combining window from it.
const basePrivCap = 1024
