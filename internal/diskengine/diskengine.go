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
// There is one iteration loop, Prepared.runPass (runmany.go), over one
// dataset layer, the Prepared: the §3.4 partition sizing, the partitioner
// and relabeling, the edge shuffle, the edge files with their tile index and
// lazily built transpose, the partition reader and the checkpoint all live
// there. The loop drives core.JobRuns and there are two kinds: core.jobRun,
// the run of a shared pass's job (RunMany, RunJob), holds vertex state and
// updates in memory; the engine[V, M] in this file, the one run of a solo
// Run, may spill both — vertex windows to per-partition vertex files,
// updates to update files, the spill store of the same core.ShuffleTransport
// every core.jobRun uses without one — and parallelizes scatter and gather
// inside a chunk. Its scatter cuts each segment of a chunk into
// one stripe per worker, stripe i always through worker i's kernel, whose
// combining window stays open for the whole partition; what the kernels
// send reaches the transport in kernel order, so its combining and update
// and device bytes do not depend on scheduling. Which of the two regimes a
// computation gets follows from its memory budget; the iteration protocol
// (direction and transpose accounting, partition and tile skips, spans,
// checkpoint timing, resume, cancellation) is the loop's and is written
// once.
//
// Buffers are owned for the whole run, as in §3.2: the pass's edgeScratch
// is the two edge input buffers every reader borrows and the update
// transport's streambuf.Writer holds the three update output buffers, the
// third made when an iteration first spills — the five stream buffers of
// §3.4 — while the update store's drain scratch, the gather sub-shuffle pair
// and one scatter kernel per worker are made on first use.
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
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
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
	// vertices spill, and that is all it covers: one partition's vertex
	// window plus five stream buffers of S·K bytes (two edge input, three
	// update output, the third made only once an iteration's updates
	// outgrow one). Outside the sum, and not limited by M: the update
	// read-back double buffer (2·S·K, once updates spill to files), the
	// gather sub-shuffle pair (2·S·K, with Threads > 1), one scatter
	// kernel per worker (Threads × ~0.8 MiB with a Combiner), the fold's slot
	// tables, the frontier bitsets and the tile index.
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
	// read index. 0 means 4096.
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
	// Context cancels the run: it is checked between iterations, between
	// partition files and between streamed chunks, so server jobs honor
	// cancelation and deadlines promptly. nil means context.Background(),
	// keeping batch callers unchanged.
	Context context.Context
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
		c.TileEdges = 4096
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// edgeRecSize is the on-disk size of one edge record.
var edgeRecSize = int64(pod.Size[core.Edge]())

// Result carries final vertex states and execution statistics.
type Result[V any] struct {
	Vertices []V
	Stats    core.Stats
}

// Run executes prog on g with the out-of-core engine: a pass of one over a
// dataset prepared for it, whose one run may spill vertex state and updates
// to the device.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	cfg = cfg.withDefaults()
	if cfg.Device == nil {
		return nil, fmt.Errorf("diskengine: Config.Device is required")
	}
	if err := pod.Check[V](); err != nil {
		return nil, fmt.Errorf("diskengine: vertex state: %w", err)
	}
	if err := pod.Check[M](); err != nil {
		return nil, fmt.Errorf("diskengine: update value: %w", err)
	}
	start := time.Now()
	before := devCounters(cfg)

	// The dataset layer sizes the partitions, runs the partitioner and
	// shuffles the edges — indexing tiles only when this run will read
	// selectively.
	pp, err := prepare(g, cfg, int64(pod.Size[V]()), core.SelectiveProgram(prog, cfg.Selective) != nil)
	if err != nil {
		return nil, err
	}
	// Idempotent: the success path closes before it reads the device
	// counters, every error path here. Checkpoints outlive a failed run on
	// purpose — they are what the retry resumes from.
	defer pp.Close()
	res, pass, err := pp.runPass(cfg.Context, start, prog.Name(), soloRuns(pp, prog))
	if err != nil {
		return nil, err
	}
	pp.Close()

	// The device is the run's own, so its I/O is the whole run's device
	// delta — the pre-processing shuffle, the update and vertex files and
	// the materialization included, none of which the pass tallies.
	st := &res[0].Stats
	now := devCounters(cfg)
	st.BytesRead = now.read - before.read
	st.BytesWritten = now.written - before.written
	st.IORetries = now.retries - before.retries
	core.GraftPass(st, &pass, true)
	st.TotalTime = time.Since(start)
	return &Result[V]{Vertices: res[0].Vertices.([]V), Stats: *st}, nil
}

// soloRuns is the run factory of a solo pass over pp: one fresh spillable
// engine for prog.
func soloRuns[V, M any](pp *Prepared, prog core.Program[V, M]) func() ([]core.JobRun, error) {
	return func() ([]core.JobRun, error) {
		e := &engine[V, M]{cfg: pp.cfg, prog: prog}
		if err := e.Setup(pp.jobSetup()); err != nil {
			e.Close()
			return nil, err
		}
		return []core.JobRun{e}, nil
	}
}

// engine is the core.JobRun of a solo Run, the one that may spill: vertex
// state lives in memory or in per-partition vertex files read a window at a
// time, updates go through a transport that spills to update files, scatter
// parallelizes over fixed stripes of a partition's segments with one
// partition-lived kernel per worker, and gather inside a chunk. The pass loop
// drives it like any other run.
type engine[V, M any] struct {
	cfg  Config
	prog core.Program[V, M]
	// asg is the pass's vertex->partition plan; nv, k and part repeat its
	// sizes.
	asg  *core.Assignment
	nv   int64
	k    int
	part core.Split
	// combine is the program's update semigroup, nil when the program has
	// none (or NoCombine disabled it), and op the CombineOp it declares;
	// folder is the reusable pre-writeback fold over them (nil when
	// partitions are too wide).
	combine func(a, b M) M
	op      core.CombineOp
	folder  *streambuf.Folder[core.Update[M]]
	// Schedule is the selective scheduling state, dense unless fp is set.
	core.Schedule
	fp core.FrontierProgram[V]
	// bufUpdRecs is the record capacity of one update stream buffer (S·K
	// bytes).
	bufUpdRecs int

	// Vertex state: either fully in memory (allVerts != nil) or spilled
	// to per-partition vertex files with a reusable window buffer.
	allVerts  []V
	vertsBuf  []V
	vertFiles []*partFile

	updFiles []*partFile

	// gather sub-shuffle scratch (layered in-memory engine, §4.3)
	subA, subB *streambuf.Buffer[core.Update[M]]
	subPlan    streambuf.Plan

	// kernels holds each scatter worker's kernel, made by the first
	// NewScatter and reused until the run ends; sink is the run's one
	// scatter sink, which NewScatter readies — every kernel Begun — per
	// partition.
	kernels []*core.ScatterKernel[V, M]
	sink    soloScatter[V, M]
	// err latches an I/O failure behind the phase hook's vertex view, whose
	// ForEach cannot return it, for EndIteration to report.
	err error

	// tp is the update transport between scatter and gather, a
	// core.ShuffleTransport spilling to the update files.
	tp core.UpdateTransport[M]

	// it counts the current scatter; iterSent is what the iteration's
	// termination test sees of it. iterMark and iterStart open the
	// per-iteration profile entry EndIteration pushes, last is the device
	// sample its I/O deltas are taken against.
	it        core.ScatterCounts
	iterSent  int64
	done      bool
	iterMark  core.IterMark
	iterStart time.Time
	last      devSample

	stats core.Stats
}

// Name implements core.JobRun.
func (e *engine[V, M]) Name() string { return e.prog.Name() }

// Setup implements core.JobRun on a fresh engine: it adopts the pass's
// partitioning, decides whether vertices spill — they do when the whole
// vertex set next to the five stream buffers exceeds the budget — creates
// the run's own files (updates, and vertices when they spill), initializes
// vertex state and makes the update transport.
func (e *engine[V, M]) Setup(s core.JobSetup) error {
	e.asg, e.nv, e.part, e.k = s.Assignment, s.NumVertices, s.Assignment.Split, s.Assignment.Split.K
	e.stats.Algorithm = e.prog.Name()
	// The program translates any ID-valued parameters first.
	if vm, ok := any(e.prog).(core.VertexMapper); ok {
		vm.MapVertices(e.nv, e.asg.NewID, e.asg.OldID)
	}
	e.combine, e.op, e.folder = core.Combining(e.prog, s.NoCombine, e.part, s.Threads)
	e.fp = core.SelectiveProgram(e.prog, s.Selective)
	e.InitSchedule(e.part, e.nv, e.fp != nil)
	e.sink.e = e
	e.kernels = make([]*core.ScatterKernel[V, M], s.Threads)
	subK := core.NextPow2(s.Threads * 4)
	var err error
	if e.subPlan, err = streambuf.NewPlan(subK, subK); err != nil {
		return err
	}

	bufBytes := int64(e.cfg.IOUnit) * int64(e.k)
	e.bufUpdRecs = int(bufBytes / int64(pod.Size[core.Update[M]]()))
	if e.bufUpdRecs < 1 {
		return fmt.Errorf("diskengine: I/O unit %d too small for update records", e.cfg.IOUnit)
	}
	if e.nv*int64(pod.Size[V]())+5*bufBytes <= e.cfg.MemoryBudget {
		e.allVerts = make([]V, e.nv)
	} else {
		e.vertsBuf = make([]V, e.part.PerPartition())
		e.vertFiles = make([]*partFile, e.k)
	}
	e.updFiles = make([]*partFile, e.k)
	for p := 0; p < e.k; p++ {
		if e.updFiles[p], err = createPartFile(e.cfg.UpdateDevice, fmt.Sprintf("%sp%04d.updates", e.cfg.Prefix, p)); err != nil {
			return err
		}
		if e.allVerts == nil {
			if e.vertFiles[p], err = createPartFile(e.cfg.Device, fmt.Sprintf("%sp%04d.verts", e.cfg.Prefix, p)); err != nil {
				return err
			}
		}
	}
	if err := e.initVertexState(); err != nil {
		return err
	}

	// The update transport: scatter sends into it, gather drains from it.
	// Its window is one stream buffer, spilled to the update files when an
	// iteration outgrows it. It holds its stream buffers for the whole run,
	// so it is made once the pre-processing shuffle has let go of its own.
	e.tp = core.NewSpillTransport(e.bufUpdRecs, s.Plan, s.Threads,
		func(u core.Update[M]) uint32 { return e.part.Of(u.Dst) }, e.folder,
		&updateStore[M]{
			files:     e.updFiles,
			chunkRecs: e.bufUpdRecs,
			prefetch:  !e.cfg.NoPrefetch,
			verify:    !e.cfg.NoVerify,
			verified:  func(n int64) { e.stats.BytesChecksummed += n },
		})
	return nil
}

// initVertexState establishes the initial vertex state — in memory or
// spilled to the vertex files. With selective scheduling, Init doubles as
// the census seeding iteration 0's frontier.
func (e *engine[V, M]) initVertexState() error {
	if e.allVerts != nil {
		// In parallel over fixed blocks of vertices, like core.jobRun: a
		// program initializes a vertex from its ID alone and seeding the
		// frontier is atomic.
		const initBlock = 4096
		n := len(e.allVerts)
		core.ForEachClaimed((n+initBlock-1)/initBlock, e.cfg.Threads, func(_, b int) {
			for i := b * initBlock; i < min(n, (b+1)*initBlock); i++ {
				e.prog.Init(core.VertexID(i), &e.allVerts[i])
				if e.fp != nil && e.fp.InitiallyActive(core.VertexID(i), &e.allVerts[i]) {
					e.Seed(core.VertexID(i))
				}
			}
		})
		return nil
	}
	for p := 0; p < e.k; p++ {
		lo, hi := e.part.Range(p, e.nv)
		buf := e.vertsBuf[:hi-lo]
		for i := range buf {
			id := core.VertexID(lo + int64(i))
			e.prog.Init(id, &buf[i])
			if e.fp != nil && e.fp.InitiallyActive(id, &buf[i]) {
				e.Seed(id)
			}
		}
		if err := e.vertFiles[p].writeAllAt(pod.AsBytes(buf)); err != nil {
			return err
		}
	}
	return nil
}

// Done implements core.JobRun.
func (e *engine[V, M]) Done() bool { return e.done }

// StartIteration implements core.JobRun.
func (e *engine[V, M]) StartIteration(iter int) {
	if s, ok := any(e.prog).(core.IterationStarter); ok {
		s.StartIteration(iter)
	}
}

// Direction implements core.JobRun.
func (e *engine[V, M]) Direction(iter int) core.Direction {
	if d, ok := any(e.prog).(core.DirectedProgram); ok {
		return d.Direction(iter)
	}
	return core.Forward
}

// BeginScatter implements core.JobRun. The run's device accounting is a
// single end-of-run delta (see Run); for the per-iteration profile the
// device counters are sampled at every iteration boundary. The first
// iteration's window opens here, past pre-processing and any resume; later
// ones open where the previous closed, so a checkpoint write lands in the
// following iteration's delta.
func (e *engine[V, M]) BeginScatter() error {
	e.Recount()
	if len(e.stats.Iters) == 0 {
		e.last = devCounters(e.cfg)
	}
	e.iterMark = e.stats.MarkIter()
	e.iterStart = time.Now()
	return nil
}

// devSample is the cumulative read/write/retry counters of a run's device
// (and distinct update device) at one instant: Run takes the whole run's
// delta, EndIteration per-iteration ones.
type devSample struct{ read, written, retries int64 }

func devCounters(cfg Config) devSample {
	ds := cfg.Device.Stats()
	s := devSample{ds.BytesRead, ds.BytesWritten, ds.Retries}
	if cfg.UpdateDevice != cfg.Device {
		us := cfg.UpdateDevice.Stats()
		s.read += us.BytesRead
		s.written += us.BytesWritten
		s.retries += us.Retries
	}
	return s
}

// soloScatter is the engine's scatter sink for one partition: the workers'
// kernels, Begun on the partition's vertex window, and the sink's first
// failure.
type soloScatter[V, M any] struct {
	e   *engine[V, M]
	err error
}

// NewScatter implements core.JobRun: it loads partition p's vertex window —
// from the vertex file when state is spilled — and Begins every worker's
// kernel on it for the whole partition, with the combining window the
// partition's degree earns: a denser partition repeats update destinations
// more, so more of them are worth keeping resident. A failed load is the
// sink's first failure. There is one sink and one window buffer, so the
// worker index is ignored.
func (e *engine[V, M]) NewScatter(_, p int, fileRecs int64) core.JobScatter {
	s := &e.sink
	var verts []V
	var lo int64
	if verts, lo, s.err = e.loadVerts(p); s.err != nil {
		return s
	}
	window := core.DegreeAwareBufRecs(basePrivCap, fileRecs, int64(len(verts)))
	for w, k := range e.kernels {
		if k == nil {
			k = core.NewScatterKernel(e.prog, e.tp, e.combine, e.op, basePrivCap)
			k.HoldSends()
			e.kernels[w] = k
		}
		k.Begin(p, e.part, verts, core.VertexID(lo), window)
	}
	return s
}

// Edges implements core.JobScatter: it scatters the chunk in segments that
// fit the transport's output window. A kernel drained after its stripe has
// put at most one record per edge into the transport, so the room reserved
// for a segment suffices whatever its kernels keep resident.
func (s *soloScatter[V, M]) Edges(chunk []core.Edge) error {
	e := s.e
	for off := 0; off < len(chunk) && s.err == nil; {
		room := e.tp.Room()
		if room == 0 {
			s.err = e.tp.Flush()
			continue
		}
		take := min(len(chunk)-off, room)
		s.err = s.segment(chunk[off : off+take])
		off += take
	}
	return s.err
}

// stripeMin is the shortest segment cut into stripes; a shorter one is
// scattered by kernel 0 alone.
const stripeMin = 4096

// segment scatters a slice of edges through the workers' kernels (§4.1): cut
// into one equal stripe per worker, stripe i always goes to kernel i. Keyed
// on the stripe, not on the goroutine that claims it, every kernel sees a
// fixed edge sequence — its stripe of every segment in order — so what it
// combines is a pure function of the partition's edges, the transport's
// window and Threads. The kernels hold what they send until the stripes are
// done, and are drained here in index order, so the transport receives the
// same records in the same order whichever goroutine finished first. Room
// was reserved for the segment, so a batch the transport refuses means
// updates would be lost: segment returns the refusal and the iteration fails.
func (s *soloScatter[V, M]) segment(edges []core.Edge) error {
	ks := s.e.kernels
	if len(edges) < stripeMin || len(ks) <= 1 {
		ks[0].Edges(edges)
	} else {
		per := (len(edges) + len(ks) - 1) / len(ks)
		core.ForEachClaimed((len(edges)+per-1)/per, len(ks), func(_, i int) {
			ks[i].Edges(edges[i*per : min((i+1)*per, len(edges))])
		})
	}
	for _, k := range ks {
		if err := k.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements core.JobScatter, on the coordinator at the end of the
// partition: it ends the kernels in index order and books their counts. A
// sweep can hold more residents than the transport's window has room for;
// no stripe is running, so the kernels flush the window as it fills.
func (s *soloScatter[V, M]) Flush() error {
	if s.err != nil {
		return s.err
	}
	for _, k := range s.e.kernels {
		n, err := k.End()
		s.e.it.Add(n)
		if err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// EndScatter implements core.JobRun: it seals the transport — whose
// IterFlow carries the fold/writeback accounting — and books the
// iteration's scatter.
func (e *engine[V, M]) EndScatter() error {
	t0 := time.Now()
	flow, err := e.tp.Seal()
	if err != nil {
		return err
	}
	e.stats.ShuffleTime += time.Since(t0)
	it := e.it
	e.it = core.ScatterCounts{}
	usize := int64(pod.Size[core.Update[M]]())
	appended, written := it.Sent-it.Combined, flow.Delivered
	e.stats.EdgesStreamed += it.Streamed
	e.stats.UpdatesSent += it.Sent
	e.stats.WastedEdges += it.Streamed - it.Sent
	e.stats.CrossPartitionUpdates += it.Cross
	e.stats.RandomRefs += it.Streamed + written
	e.stats.SequentialRefs += it.Streamed + written
	e.stats.BytesStreamed += it.Streamed*edgeRecSize + (appended+written)*usize
	e.stats.UpdatesCombined += it.Combined + flow.Combined
	e.stats.UpdateBytes += written * usize
	e.TakeSkips(&e.stats)
	e.iterSent = it.Sent
	return nil
}

// basePrivCap is the capacity (records) of a scatter kernel's private append
// buffer; core.DegreeAwareBufRecs scales the combining window from it.
const basePrivCap = 1024

// Gather implements core.JobRun: it drains each partition's sealed update
// stream from the transport onto its vertex window, partitions in order —
// there is one window buffer — and up to workers goroutines inside a chunk.
// With selective scheduling an update-empty partition is skipped outright:
// no gather can change its state, so neither its update stream nor (in
// spill mode) its vertex file is touched. The transport owns stream
// verification (byte count and running CRC32C); the engine still refuses any
// update whose destination falls outside the partition window before it
// indexes the vertex slice, since a stream checksum only closes after the
// whole partition is consumed.
func (e *engine[V, M]) Gather(workers int) error {
	t0 := time.Now()
	for p := 0; p < e.k; p++ {
		if err := e.cfg.Context.Err(); err != nil { // between partition files
			return err
		}
		if !e.Dense() && e.tp.Pending(p) == 0 {
			continue
		}
		verts, lo, err := e.loadVerts(p)
		if err != nil {
			return err
		}
		winHi := lo + int64(len(verts))
		name := e.updFiles[p].name
		subPart := core.NewSplit(int64(len(verts)), e.subPlan.K)
		if err := e.tp.Drain(p, func(chunk []core.Update[M]) error {
			for _, u := range chunk {
				if int64(u.Dst) < lo || int64(u.Dst) >= winHi {
					return fmt.Errorf("diskengine: update file %s: update for vertex %d outside partition window [%d,%d): %w",
						name, u.Dst, lo, winHi, storage.ErrCorrupted)
				}
			}
			e.gatherChunk(chunk, verts, lo, subPart, workers)
			return nil
		}); err != nil {
			return err
		}
		if err := e.storeVerts(p, verts); err != nil {
			return err
		}
	}
	if err := e.tp.EndIteration(); err != nil {
		return err
	}
	e.Advance()
	e.stats.GatherTime += time.Since(t0)
	return nil
}

// gatherChunk applies a chunk of updates to the partition's vertex window.
// With multiple workers the chunk is first shuffled by destination
// sub-range so workers touch disjoint vertices — the in-memory engine
// layered inside the disk engine (§4.3); subPart is that split of the
// partition's window into the sub-shuffle plan's buckets. With selective
// scheduling every receiver is marked into the next frontier: receipt of an
// update, not a state change, is what (conservatively) activates a vertex,
// so the frontier is identical whether or not the stream was pre-combined.
func (e *engine[V, M]) gatherChunk(chunk []core.Update[M], verts []V, lo int64, subPart core.Split, workers int) {
	nxt := e.Receivers()
	if workers <= 1 || len(chunk) < 8192 {
		for _, u := range chunk {
			e.prog.Gather(u.Dst, &verts[int64(u.Dst)-lo], u.Val)
			if nxt != nil {
				nxt.Mark(u.Dst)
			}
		}
		return
	}
	if e.subA == nil {
		e.subA = streambuf.New[core.Update[M]](e.bufUpdRecs)
		e.subB = streambuf.New[core.Update[M]](e.bufUpdRecs)
	}
	e.subA.Fill(chunk)
	res := streambuf.Shuffle(e.subA, e.subB, e.subPlan, workers, func(u core.Update[M]) uint32 {
		return subPart.Of(core.VertexID(int64(u.Dst) - lo))
	})
	core.ForEachClaimed(e.subPlan.K, workers, func(_, sp int) {
		res.Bucket(sp, func(run []core.Update[M]) {
			for _, u := range run {
				e.prog.Gather(u.Dst, &verts[int64(u.Dst)-lo], u.Val)
				if nxt != nil {
					nxt.Mark(u.Dst)
				}
			}
		})
	})
}

// loadVerts returns the vertex window of partition p starting at vertex lo.
// In spill mode the window is read from the partition's vertex file.
func (e *engine[V, M]) loadVerts(p int) ([]V, int64, error) {
	lo, hi := e.part.Range(p, e.nv)
	if e.allVerts != nil {
		return e.allVerts[lo:hi], lo, nil
	}
	buf := e.vertsBuf[:hi-lo]
	vf := e.vertFiles[p]
	recs, err := readFull(vf.f, buf, 0, pod.Size[V]())
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != len(buf) {
		return nil, 0, fmt.Errorf("diskengine: vertex file %s short: %d records, want %d: %w",
			vf.name, len(recs), len(buf), storage.ErrCorrupted)
	}
	if !e.cfg.NoVerify {
		raw := pod.AsBytes(buf)
		if got := storage.Checksum(raw); got != vf.crc {
			return nil, 0, fmt.Errorf("diskengine: vertex file %s: checksum %08x, want %08x: %w",
				vf.name, got, vf.crc, storage.ErrCorrupted)
		}
		e.stats.BytesChecksummed += int64(len(raw))
	}
	return buf, lo, nil
}

// storeVerts persists a partition's vertex window after gather. A no-op
// when all vertices are held in memory (§3.2 optimization 1). The rewrite
// resets the file's running checksum, so the next loadVerts verifies
// against exactly this window.
func (e *engine[V, M]) storeVerts(p int, verts []V) error {
	if e.allVerts != nil {
		return nil
	}
	return e.vertFiles[p].writeAllAt(pod.AsBytes(verts))
}

// EndIteration implements core.JobRun: it closes the iteration's profile
// entry with its device I/O, then runs the phase hook, or the sent == 0
// termination test of a program without one.
func (e *engine[V, M]) EndIteration(iter int) error {
	d := devCounters(e.cfg)
	e.stats.BytesRead += d.read - e.last.read
	e.stats.BytesWritten += d.written - e.last.written
	e.stats.IORetries += d.retries - e.last.retries
	e.last = d
	e.stats.Iterations++
	e.stats.PushIter(iter, e.iterMark, time.Since(e.iterStart))
	if phased, ok := any(e.prog).(core.PhasedProgram[V, M]); ok {
		e.done = phased.EndIteration(iter, e.iterSent, e.vertexView())
	} else {
		e.done = e.iterSent == 0
	}
	return e.err
}

// vertexView returns the VertexView for phase hooks.
func (e *engine[V, M]) vertexView() core.VertexView[V] {
	if e.allVerts != nil {
		return core.SliceView[V](e.allVerts)
	}
	return &spillView[V, M]{e: e}
}

// spillView streams spilled partitions through phase hooks, persisting
// mutations. ForEach cannot return the I/O error that cuts a visit short —
// the remaining partitions un-updated, or one stored torn — so the engine
// latches it in e.err and EndIteration fails the iteration.
type spillView[V, M any] struct{ e *engine[V, M] }

func (s *spillView[V, M]) NumVertices() int64 { return s.e.nv }

func (s *spillView[V, M]) ForEach(fn func(core.VertexID, *V)) {
	for p := 0; p < s.e.k; p++ {
		verts, lo, err := s.e.loadVerts(p)
		if err != nil {
			s.e.err = err
			return
		}
		for i := range verts {
			fn(core.VertexID(lo+int64(i)), &verts[i])
		}
		if err := s.e.storeVerts(p, verts); err != nil {
			s.e.err = err
			return
		}
	}
}

// Finalize implements core.JobRun: the full final vertex state in original
// input order (ID-valued state remapped, relabeling undone), the run's
// stats, and the run closed.
func (e *engine[V, M]) Finalize() (any, core.Stats, error) {
	out := e.allVerts
	if out == nil {
		out = make([]V, e.nv)
		for p := 0; p < e.k; p++ {
			verts, lo, err := e.loadVerts(p)
			if err != nil {
				return nil, e.stats, err
			}
			copy(out[lo:], verts)
		}
	}
	if !e.asg.Identity() {
		if rm, ok := any(e.prog).(core.StateRemapper[V]); ok {
			for i := range out {
				rm.RemapState(&out[i], e.asg.OldID)
			}
		}
		out = core.RestoreOrder(out, e.asg.Relabel)
	}
	tc := e.tp.Counters()
	e.stats.TransportBatches = tc.Batches
	e.stats.TransportBytes = tc.Bytes
	e.stats.TransportCross = tc.Cross
	e.Close()
	return out, e.stats, nil
}

// Close implements core.JobRun: it shuts the update transport down —
// stopping any live write pipeline an error path abandoned mid-scatter — and
// then removes the run's update and vertex files underneath it. Idempotent,
// and safe when Setup failed before the transport or some file existed; the
// edge files are the Prepared's to remove.
func (e *engine[V, M]) Close() {
	if e.tp != nil {
		e.tp.Close()
		e.tp = nil
	}
	for _, fs := range [][]*partFile{e.updFiles, e.vertFiles} {
		for _, f := range fs {
			if f != nil {
				f.remove()
			}
		}
	}
	e.updFiles, e.vertFiles = nil, nil
}

// The engine is its own core.Snapshotter: one section, whose vertex bytes
// are the in-memory slice or, spilled, one window per partition read from
// (restore: written back to) its vertex file. The frontier half is the
// embedded Schedule's.

// MarkDone implements core.Snapshotter.
func (e *engine[V, M]) MarkDone() { e.done = true }

// StateSize implements core.Snapshotter.
func (e *engine[V, M]) StateSize() int64 { return e.nv * int64(pod.Size[V]()) }

// VisitState implements core.Snapshotter.
func (e *engine[V, M]) VisitState(restore bool, fn func(window []byte) error) error {
	if e.allVerts != nil {
		return fn(pod.AsBytes(e.allVerts))
	}
	for p := 0; p < e.k; p++ {
		lo, hi := e.part.Range(p, e.nv)
		verts := e.vertsBuf[:hi-lo]
		if !restore {
			var err error
			if verts, _, err = e.loadVerts(p); err != nil {
				return err
			}
		}
		if err := fn(pod.AsBytes(verts)); err != nil {
			return err
		}
		if restore {
			if err := e.storeVerts(p, verts); err != nil {
				return err
			}
		}
	}
	return nil
}
