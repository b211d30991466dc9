// Package diskengine is X-Stream's out-of-core streaming engine (paper §3).
//
// Fast Storage is main memory, Slow Storage is the device holding the
// graph. Each streaming partition owns three files — vertices, edges,
// updates. Pre-processing is a single streaming shuffle of the unordered
// input edge list into the partition edge files; there is no sort. The
// shuffle's one sink, a tileWriter, writes every edge file a tile at a
// time — raw records appended as they arrive, or each tile encoded with
// internal/tilecodec when it closes (CompressTiles) — and records the
// file's tile index: per fixed-size run of records, where it sits in the
// file, its source span on a Selective handle (only selective streaming
// reads spans) and, for a raw tile on a verifying handle, its CRC32C. An
// encoded tile carries its CRC in its tilecodec frame and the spans of its
// 64-record blocks in its block directory; a raw tile's block spans are
// computed from its records when it is read. Every read of a file is a run of whole
// tiles by the one tileReader, which checks each tile before it hands the
// tile's batch to the scatter: with verification on, a pass checks every
// edge byte it reads before any of it is scattered. Its batches are the
// edge double buffer's size, S·K rounded up to whole tiles. The shuffle's sink also counts every vertex's out-degree, on
// its one writer goroutine, and the counts are written out as one
// CRC-checked degree file per partition (<prefix>ds-p0000.deg): a
// core.DegreeInit program such as PageRank reads its partition windows of
// them, verified, once per job, and streams forward only — the transposed
// edge files are SCC's alone.
// Each iteration then runs the merged scatter/shuffle phase of Figure 6
// (stream edges, append updates to a stream buffer, shuffle the buffer when
// full and append the per-partition chunks to the update files) followed by
// the gather phase (stream each partition's update file onto its in-memory
// vertex set).
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
// tile index and lazily built transpose, the degree files, the partition
// reader and the checkpoint all live there, and Prepared.runPass (runmany.go) supplies how
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
// combine same-destination updates before they reach the update stream,
// shrinking the update-file I/O that dominates out-of-core runs (see
// Config.NoCombine and the figcombine experiment).
//
// When the program additionally implements core.FrontierProgram and
// Config.Selective is set, the engine keeps an active-vertex frontier
// across iterations and skips I/O the frontier proves useless: a partition
// with no active source has its edge file not read at all, a partially
// active partition is read only in the segments whose tiles (indexed
// during the pre-processing edge shuffle) contain an active source, within
// a tile read only the 64-record blocks whose source span holds an active
// source are decoded and scattered, and a partition whose update file is
// empty skips its gather — including the vertex-file read/writeback in
// spill mode. Edge-file waste is the out-of-core engine's dominant loss
// case on frontier algorithms (§5.3); Stats.EdgesSkipped (skipped
// partitions, tiles and blocks) / PartitionsSkipped / TilesSkipped and the
// drop in BytesRead quantify the recovery (see the figfrontier experiment).
//
// Config is core.Config, the one configuration of both engines: this engine
// reads the fields both share plus Device, UpdateDevice, MemoryBudget,
// IOUnit, Prefix, NoPrefetch, CompressTiles, NoVerify and Checkpoint, and
// ignores Fanout and NoWorkStealing. Its own defaults are 1024-record tiles,
// a 256 MiB budget, a 1 MiB I/O unit and the update files on Device.
// Prepared satisfies core.Prepared, the handle interface of both engines;
// its Close removes the partition files.
package diskengine

import (
	"context"

	"repro/internal/core"
	"repro/internal/pod"
)

// Config tunes the engine: core.Config, of which the package doc names the
// fields this engine reads.
type Config = core.Config

// withDefaults fills the out-of-core defaults: 1024-record tiles (see
// Config.TileEdges), a 256 MiB memory budget, a 1 MiB I/O unit and the
// update files on Device.
func withDefaults(c Config) Config {
	c = c.Defaults(1024)
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.IOUnit <= 0 {
		c.IOUnit = 1 << 20
	}
	if c.UpdateDevice == nil {
		c.UpdateDevice = c.Device
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
func retries(c Config) int64 {
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
