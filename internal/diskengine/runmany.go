package diskengine

// runmany.go is the out-of-core engine's dataset layer and what it supplies
// to the iteration loop of both engines, core.RunPass. A Prepared holds a
// dataset's pre-processing output — the input edge list shuffled once into
// partition edge files, the tile index and the out-degree files written
// during that shuffle, and the transposed files, built lazily for the
// Backward iterations of SCC — so the shuffle is paid once per
// dataset instead of once per run. runPass then drives any number of runs
// (core.JobRun) from one pass over the edge files per iteration: each chunk
// read from a file is handed to every subscribing run's scatter sink, so the
// edge-file I/O that dominates out-of-core runs is amortized across
// co-scheduled jobs (BytesRead drops toward 1/K of K sequential runs; the
// figshare experiment gates it).
//
// One loop, one run kind, one run configuration: every run is a
// core.jobRun, every one is lent the stores of openStores (stores.go) —
// update files behind the transport, and vertex files, read and gathered a
// window at a time, when its share of the memory budget does not hold its
// state — and so scatters through the window sink, since the loop streams
// one partition at a time through sink 0. The J runs of a pass share the
// budget M, each getting M/J (see jobSetup). A solo Run is RunJob with its
// types kept.
//
// Fault tolerance composes too: under Config.Checkpoint a pass snapshots
// every job's resumable state after each completed iteration (see
// checkpoint.go), so a killed or faulted pass restarted with the
// same prefix resumes from the last completed iteration — the path
// cmd/xstream's -checkpoint flag takes through RunJob.
//
// Selective streaming composes (core.PartitionPlan): a partition's edge file
// is not read at all when no run's frontier reaches it, and when some
// needing run is partially active the file is read only in the segments
// whose tiles some run needs (the frontier union). Within a streamed chunk
// every needing run scatters all records — extra records are wasted edges by
// the FrontierProgram contract, never wrong results.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/streambuf"
)

// sharedVertexBytes is the nominal per-vertex state size Prepare sizes
// partitions with when Config.Partitions is 0: the prepared file layout is
// shared by jobs of different state sizes.
const sharedVertexBytes = 16

// Prepared is a dataset's out-of-core pre-processing — partition edge files
// plus tile index, and partition out-degree files — and the engine's only
// dataset layer: a handle from Prepare is shared read-only by any number of
// RunMany passes, and RunMany over a graph makes one for itself. Every pass over it is a runPass. Close
// removes the files.
type Prepared struct {
	cfg         Config
	k           int
	part        core.Split
	asg         *core.Assignment
	partName    string
	shufPlan    streambuf.Plan
	nv, ne      int64
	bufEdgeRecs int // S·K in records: the pre-processing shuffle's window
	// readRecs is the edge double buffer's capacity in records: S·K
	// rounded up to whole tiles, so every full read batch is whole tiles
	// that fill it (tileReader, batchEnd).
	readRecs int
	// runSeq numbers the runs made over the handle, naming their files.
	runSeq atomic.Int64

	mu        sync.Mutex
	edgeFiles []*partFile
	bwdFiles  []*partFile
	// degFiles holds each partition's out-degrees (degrees.go), degCRCs
	// their CRC32C under verification.
	degFiles []*partFile
	degCRCs  []uint32
	tilesFwd *diskTiles
	tilesBwd *diskTiles // nil until the transposed files are built
	closed   bool
}

// Prepare ingests a graph once for shared-pass execution on cfg.Device:
// it plans the partitioning (paying any clustering passes now), rewrites
// the edge stream through the relabeling, and shuffles it into partition
// edge files, indexing its tiles and counting out-degrees along the way. The
// handle serves any number of jobs until Close.
func Prepare(g core.EdgeSource, cfg Config) (*Prepared, error) {
	return prepare(g, cfg, sharedVertexBytes, 1)
}

// prepare is Prepare with the vertex state size and the run count of the
// §3.4 partition sizing — RunMany over a graph knows its jobs, a cached
// handle sizes for one run of sharedVertexBytes. vertexBytes is the runs'
// per-vertex state summed. K is partitionCount's: the smallest power of two
// at which one partition's vertex windows of every run, the two shared edge
// input buffers and each run's three update output buffers fit M,
// nv·vertexBytes/K + (2 + 3·runs)·S·K ≤ M (N/K + 5·S·K ≤ M for one run).
// Every edge file is written with its tile index, which plans and verifies
// every read of it, selective or dense; the tiles' source spans are recorded
// only when the handle runs selectively. The same shuffle counts every
// vertex's out-degree, written out as one degree file per partition.
func prepare(g core.EdgeSource, cfg Config, vertexBytes int64, runs int) (*Prepared, error) {
	cfg = withDefaults(cfg)
	if cfg.Device == nil {
		return nil, fmt.Errorf("diskengine: Config.Device is required")
	}
	nv, ne := g.NumVertices(), g.NumEdges()

	k := cfg.Partitions
	if k == 0 {
		var err error
		if k, err = partitionCount(nv*vertexBytes, 2+3*int64(runs), cfg.IOUnit, cfg.MemoryBudget); err != nil {
			return nil, err
		}
	}
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("diskengine: partition count %d is not a power of two", k)
	}
	fanout := k // single-stage shuffle: K is small out of core (§3.4)
	if fanout < 2 {
		fanout = 2
	}
	plan, err := streambuf.NewPlan(k, fanout)
	if err != nil {
		return nil, err
	}
	bufEdgeRecs := int(int64(cfg.IOUnit) * int64(k) / edgeRecSize)
	if bufEdgeRecs < 1 {
		return nil, fmt.Errorf("diskengine: I/O unit %d too small for edge records", cfg.IOUnit)
	}

	g, asg, partName, err := graphio.Partition(g, cfg.Partitioner, k)
	if err != nil {
		return nil, fmt.Errorf("diskengine: %w", err)
	}
	pp := &Prepared{
		cfg: cfg, k: k, part: asg.Split, asg: asg, partName: partName,
		shufPlan: plan, nv: nv, ne: ne, bufEdgeRecs: bufEdgeRecs,
		readRecs: (bufEdgeRecs + cfg.TileEdges - 1) / cfg.TileEdges * cfg.TileEdges,
	}
	pp.edgeFiles = make([]*partFile, k)
	for p := 0; p < k; p++ {
		if pp.edgeFiles[p], err = createPartFile(cfg.Device, fmt.Sprintf("%sds-p%04d.edges", cfg.Prefix, p)); err != nil {
			pp.removeFiles()
			return nil, err
		}
	}
	pp.tilesFwd = newDiskTiles(k, cfg)
	// The counts have room for every ID the split can place, so a source
	// past nv cannot index out of them; the partition reader refuses its
	// edge as corrupted.
	deg := make([]uint32, int64(k)*pp.part.PerPartition())
	if err := partitionEdgesInto(g, pp.edgeFiles, false, pp.tilesFwd, deg, bufEdgeRecs, plan, pp.part, cfg.Threads); err != nil {
		pp.removeFiles()
		return nil, err
	}
	if err := pp.writeDegrees(deg); err != nil {
		pp.removeFiles()
		return nil, err
	}
	return pp, nil
}

// partitionCount is the §3.4 partition sizing: the smallest power of two K
// at which one partition's share of n bytes of vertex state and b stream
// buffers of S·K bytes (S the I/O unit) fit the memory budget M,
//
//	N/K + B·S·K ≤ M.
//
// A budget no K satisfies is an error naming the least memory that could:
// the left side is smallest at K = sqrt(N/BS), where it is 2·sqrt(BNS).
func partitionCount(n, b int64, ioUnit int, m int64) (int, error) {
	s := int64(ioUnit)
	for k := int64(1); k <= 1<<20 && b*s*k <= m; k <<= 1 {
		if n/k+b*s*k <= m {
			return int(k), nil
		}
	}
	return 0, fmt.Errorf("diskengine: no partition count satisfies N/K + B·S·K ≤ M with N=%d B=%d S=%d M=%d (need ≥ %d bytes)",
		n, b, s, m, int64(2*math.Sqrt(float64(n)*float64(b*s))))
}

// NumVertices returns the prepared graph's vertex count.
func (pp *Prepared) NumVertices() int64 { return pp.nv }

// NumEdges returns the prepared graph's edge record count.
func (pp *Prepared) NumEdges() int64 { return pp.ne }

// Partitions returns the shared partition count.
func (pp *Prepared) Partitions() int { return pp.k }

// Bytes returns the handle's resident in-memory footprint: the tile
// indexes, word→tile ones included, plus per-file bookkeeping. The
// partition edge and degree files themselves live on the device (BytesRead
// accounts their traffic), so an out-of-core handle is cheap to keep
// resident — but not free, which is what the dataset registry's memory cap
// charges.
func (pp *Prepared) Bytes() int64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	const fileBytes = 96 // partFile struct + device handle
	spanBytes := int64(pod.Size[tileSpan]())
	n := int64(len(pp.edgeFiles)+len(pp.bwdFiles)+len(pp.degFiles))*fileBytes + int64(len(pp.degCRCs))*4
	for _, t := range []*diskTiles{pp.tilesFwd, pp.tilesBwd} {
		if t == nil {
			continue
		}
		for _, spans := range t.parts {
			n += int64(len(spans)) * spanBytes
		}
		if t.index != nil {
			n += t.index.Bytes()
		}
	}
	return n
}

// Close removes the prepared partition files from the device.
func (pp *Prepared) Close() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return
	}
	pp.closed = true
	pp.removeFiles()
}

func (pp *Prepared) removeFiles() {
	for _, fs := range [][]*partFile{pp.edgeFiles, pp.bwdFiles, pp.degFiles} {
		for _, f := range fs {
			if f != nil {
				f.remove()
			}
		}
	}
}

// edgeIO is edge-file traffic a caller tallies from what it actually moved —
// never from global device counters, so concurrent passes on one device
// stay correctly attributed: device bytes read, the record bytes they
// decoded to (equal unless CompressTiles shrank the files), device bytes
// written and bytes checksum-verified.
type edgeIO struct{ read, logical, written, checked int64 }

// addTo accrues the traffic onto a pass's stats.
func (io edgeIO) addTo(s *core.Stats) {
	s.BytesRead += io.read
	s.BytesReadLogical += io.logical
	s.BytesWritten += io.written
	s.BytesChecksummed += io.checked
}

// files returns the partition edge files and tile index for a direction,
// building the transposed files lazily, at most once, with one streaming
// pass over the forward files, and — when selective says a run will plan
// tiles — the tiles' word→tile index. The build's own I/O (one read and one
// write of the whole edge volume) is returned so the triggering run can
// account it.
func (pp *Prepared) files(dir core.Direction, selective bool) (fs fileStream, build edgeIO, err error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return fs, build, fmt.Errorf("diskengine: prepared dataset is closed")
	}
	fs.files, fs.tiles = pp.edgeFiles, pp.tilesFwd
	if dir == core.Backward {
		if fs.files, fs.tiles, build, err = pp.transposed(); err != nil {
			return fs, build, err
		}
	}
	if selective {
		fs.index = fs.tiles.tileIndex()
	}
	return fs, build, nil
}

// transposed returns the transposed files and their tiles, building them on
// first use; the caller holds pp.mu.
func (pp *Prepared) transposed() (files []*partFile, tiles *diskTiles, build edgeIO, err error) {
	if pp.bwdFiles == nil {
		bwd := make([]*partFile, pp.k)
		cleanup := func() {
			for _, f := range bwd {
				if f != nil {
					f.remove()
				}
			}
		}
		for p := 0; p < pp.k; p++ {
			if bwd[p], err = createPartFile(pp.cfg.Device, fmt.Sprintf("%sds-p%04d.redges", pp.cfg.Prefix, p)); err != nil {
				cleanup()
				return nil, nil, build, err
			}
		}
		src := &forwardSource{pp: pp, sc: new(edgeScratch)}
		t := newDiskTiles(pp.k, pp.cfg)
		if err := partitionEdgesInto(src, bwd, true, t, nil, pp.bufEdgeRecs, pp.shufPlan, pp.part, pp.cfg.Threads); err != nil {
			cleanup()
			return nil, nil, build, err
		}
		build = src.io
		for p := 0; p < pp.k; p++ {
			build.written += bwd[p].size
		}
		pp.bwdFiles, pp.tilesBwd = bwd, t
	}
	return pp.bwdFiles, pp.tilesBwd, build, nil
}

// partitionEdgesInto is the pre-processing shuffle: it streams src through
// the shuffle pipeline into the partition edge files, optionally transposing
// each edge first, through a tileWriter that writes the files a tile at a
// time and builds their tile index. When deg is non-nil the sink also counts
// every record's source into it: the out-degrees, counted on the writer
// goroutine.
func partitionEdgesInto(src core.EdgeSource, files []*partFile, transpose bool, tiles *diskTiles, deg []uint32, bufEdgeRecs int, plan streambuf.Plan, part core.Split, threads int) error {
	tw := newTileWriter(files, tiles)
	sink := tw.append
	if deg != nil {
		write := sink
		sink = func(p int, run []core.Edge) error {
			for _, ed := range run {
				deg[ed.Src]++
			}
			return write(p, run)
		}
	}
	w := streambuf.NewWriter(bufEdgeRecs, plan, threads, func(ed core.Edge) uint32 {
		return part.Of(ed.Src)
	}, sink)
	err := src.Edges(func(batch []core.Edge) error {
		if transpose {
			for i := range batch {
				batch[i].Src, batch[i].Dst = batch[i].Dst, batch[i].Src
			}
		}
		return w.Append(batch)
	})
	if err != nil {
		w.Finish()
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	return tw.finish()
}

// forwardSource re-streams a Prepared's forward edge files as one edge
// source — the transpose build's input — through the same guarded partition
// reader as the scatter loop: the build keys each record by its Dst, so a
// corrupted one must not reach the shuffle either.
type forwardSource struct {
	pp *Prepared
	sc *edgeScratch
	io edgeIO // accumulated over every Edges pass
}

func (s *forwardSource) NumVertices() int64 { return s.pp.nv }

func (s *forwardSource) NumEdges() int64 { return s.pp.ne }

func (s *forwardSource) Edges(fn func([]core.Edge) error) error {
	pp := s.pp
	for p := range pp.edgeFiles {
		segs, _, _ := planSegments(pp.tilesFwd, p, false, nil, nil)
		io, _, err := pp.streamPartition(nil, s.sc, pp.edgeFiles, pp.tilesFwd, p, segs, nil, fn)
		s.io.read += io.read
		s.io.logical += io.logical
		s.io.checked += io.checked
		if err != nil {
			return err
		}
	}
	return nil
}

// streamPartition is how the scatter loop, and the transpose build, reads
// partition p's edge file: it streams the segments planSegments planned
// through fn — with need, only the blocks need accepts — under the config's
// verify and prefetch settings, and returns the traffic moved and the
// records of the blocks skipped. Every record is checked against the
// shuffle invariant before fn sees it: a corrupted record must never be
// dereferenced, and with verification off no tile CRC stands between a
// bit-flipped Src or Dst and an index outside the vertex window or the
// shuffle plan.
func (pp *Prepared) streamPartition(ctx context.Context, rd *edgeScratch, files []*partFile, tiles *diskTiles, p int, segs []edgeSegment, need func(core.SrcSpan) bool, fn func([]core.Edge) error) (edgeIO, int64, error) {
	lo, hi := pp.part.Range(p, pp.nv)
	return streamSegments(ctx, rd, files[p], tiles.compressed, !pp.cfg.NoVerify, segs, pp.readRecs, !pp.cfg.NoPrefetch, need, func(chunk []core.Edge) error {
		for _, ed := range chunk {
			if int64(ed.Src) < lo || int64(ed.Src) >= hi || int64(ed.Dst) >= pp.nv {
				return fmt.Errorf("diskengine: edge file %s: record (%d -> %d) outside partition %d window [%d,%d) of %d vertices: %w",
					files[p].name, ed.Src, ed.Dst, p, lo, hi, pp.nv, storage.ErrCorrupted)
			}
		}
		return fn(chunk)
	})
}

// RunMany executes every job of set against g out of core, sharing one
// pass over the edge files per iteration. See Prepared.RunMany. Every job is
// checked before the ingest, and the partitions are sized for the whole set
// (see Config.MemoryBudget). The pass's PreprocessTime, TotalTime and "run"
// span cover the ingest as well, and its I/O the edge shuffle's writes and
// the retries since before it.
func RunMany(ctx context.Context, g core.EdgeSource, set core.ProgramSet, cfg Config) ([]core.JobResult, core.Stats, error) {
	start, before := time.Now(), retries(cfg)
	if err := set.Check(); err != nil {
		return nil, core.Stats{}, fmt.Errorf("diskengine: %w", err)
	}
	var vb int64
	for _, j := range set {
		vb += int64(j.VertexBytes())
	}
	pp, err := prepare(g, cfg, vb, len(set))
	if err != nil {
		return nil, core.Stats{}, err
	}
	defer pp.Close()
	prepRetries := retries(pp.cfg) - before
	res, pass, err := pp.runMany(ctx, set, start)
	for _, fs := range [][]*partFile{pp.edgeFiles, pp.degFiles} {
		for _, f := range fs {
			pass.BytesWritten += f.size
		}
	}
	pass.IORetries += prepRetries
	return res, pass, err
}

// RunJob executes a single type-erased job: a RunMany of one, whose pass's
// accounting is the job's own. Run is RunJob with the program's types kept.
func RunJob(ctx context.Context, g core.EdgeSource, job *core.Job, cfg Config) (*core.JobResult, error) {
	return core.Solo(RunMany(ctx, g, core.ProgramSet{job}, cfg))
}

// RunMany drives all jobs of set from one pass over the prepared edge
// files per iteration. It returns each job's result plus pass-level stats:
// EdgesStreamed counts every edge record read once however many jobs
// consumed it, EdgesShared the reads the sharing avoided, and
// BytesRead/BytesWritten the device traffic of this pass alone — what its
// reader, its checkpoints and its runs' stores moved. ctx cancels between
// iterations, files and chunks; nil means Background.
func (pp *Prepared) RunMany(ctx context.Context, set core.ProgramSet) ([]core.JobResult, core.Stats, error) {
	return pp.runMany(ctx, set, time.Now())
}

// runMany is a pass whose runs are set's, set up under jobSetup.
func (pp *Prepared) runMany(ctx context.Context, set core.ProgramSet, start time.Time) ([]core.JobResult, core.Stats, error) {
	return pp.runPass(ctx, start, set.Label(), func() ([]core.JobRun, error) {
		runs, err := set.NewRuns(pp.jobSetup(ctx, len(set)))
		if err != nil {
			return nil, fmt.Errorf("diskengine: %w", err)
		}
		return runs, nil
	})
}

// jobSetup is what each run of a pass of jobs runs over pp is set up
// under. Each run is lent the stores of openStores under its share of the
// budget.
func (pp *Prepared) jobSetup(ctx context.Context, jobs int) core.JobSetup {
	cfg := pp.cfg
	return core.JobSetup{
		Assignment: pp.asg, NumVertices: pp.nv, NumEdges: pp.ne,
		Threads: cfg.Threads, Plan: pp.shufPlan, PrivateBufRecs: basePrivCap,
		NoCombine: cfg.NoCombine, Selective: cfg.Selective,
		Spill: func(vertexBytes, updateBytes int, io *core.SpillIO) (*core.Spill, error) {
			return pp.openStores(ctx, jobs, vertexBytes, updateBytes, io)
		},
		Degrees: pp.readDegrees,
	}
}

// runPass drives whatever runs newRuns makes through core.RunPass, the
// iteration loop of both engines, with a diskPass streaming the partition
// files (Figure 6: the merged scatter/shuffle over the files, then gather).
// newRuns is called once up front and again whenever a verified checkpoint
// fails to load, after the half-restored runs were closed, so a failed
// resume never leaves state behind; a resumed pass hands RunPass the
// iteration after the snapshot's. start is when the pass's work began (see
// core.Pass).
func (pp *Prepared) runPass(ctx context.Context, start time.Time, label string, newRuns func() ([]core.JobRun, error)) ([]core.JobResult, core.Stats, error) {
	cfg := pp.cfg
	pass := core.Stats{
		Algorithm: label, Engine: "disk:" + cfg.Device.Name(),
		Partitioner: pp.partName, Partitions: pp.k, Threads: cfg.Threads,
	}
	retriesBefore := retries(cfg)

	runs, err := newRuns()
	if err != nil {
		return nil, pass, err
	}
	// runs is re-filled in place by a failed resume, so the deferred close
	// sees whichever runs the pass ended with.
	defer core.CloseRuns(runs)
	pass.CoJobs = len(runs)
	dp := &diskPass{pp: pp, scatters: make([]core.JobScatter, len(runs))}
	dp.need = dp.plan.NeedsTile

	// Resume a checkpointed pass from the newest valid snapshot a previous
	// attempt with this prefix left behind: iterations [0, startIter) are
	// restored, not executed. Invalid or corrupt snapshots are ignored,
	// never trusted.
	startIter := 0
	if cfg.Checkpoint {
		dp.snaps = snapshotters(runs)
	}
	if dp.snaps != nil {
		startIter, err = pp.tryResume(&pass, dp.snaps, func() error {
			core.CloseRuns(runs)
			rs, err := newRuns()
			if err != nil {
				return err
			}
			copy(runs, rs)
			copy(dp.snaps, snapshotters(rs))
			return nil
		})
		if err != nil {
			return nil, pass, err
		}
		pass.ResumedIterations = startIter
	}

	dp.retries = retries(cfg)
	results, err := core.RunPass(ctx, core.Pass{
		Engine: dp, Runs: runs, Start: start, FirstIter: startIter,
		MaxIterations: cfg.MaxIterations, Threads: cfg.Threads, Tracer: cfg.Tracer,
	}, &pass)
	if err != nil {
		return nil, pass, err
	}
	if dp.snaps != nil {
		pp.removeCheckpoints()
	}
	pp.layoutStats(&pass)
	pass.IORetries = retries(cfg) - retriesBefore
	return results, pass, nil
}

// diskPass is a pass's core.PassEngine, made once per pass and reused by
// every iteration: per direction the partition files and tile index it
// resolved; the edge-read buffers, lent to one segment at a time; the
// partition plan and the needing runs' sinks; and, under Config.Checkpoint,
// the runs' snapshotters. retries is the devices' retry count when the
// current iteration began.
type diskPass struct {
	pp       *Prepared
	streams  [2]fileStream // indexed by core.Direction
	rd       edgeScratch
	plan     core.PartitionPlan
	need     func(core.SrcSpan) bool // plan.NeedsTile, bound once per pass
	ids      []int32                 // the partition's needed tiles, for one plan
	segs     []edgeSegment           // the partition's planned reads, for one plan
	scatters []core.JobScatter
	snaps    []core.Snapshotter
	retries  int64
}

// fileStream is one orientation's partition edge files and tile index,
// with the word→tile index when a subscriber has a frontier.
type fileStream struct {
	files []*partFile
	tiles *diskTiles
	index *core.TileIndex
}

// Resolve implements core.PassEngine: the transposed files and the
// word→tile index are built on first use, and the build's I/O is the
// triggering pass's.
func (d *diskPass) Resolve(dir core.Direction, subs []core.JobRun, pass *core.Stats) error {
	selective := false
	for _, r := range subs {
		selective = selective || !r.Dense()
	}
	fs, build, err := d.pp.files(dir, selective)
	if err != nil {
		return err
	}
	build.addTo(pass)
	d.streams[dir] = fs
	return nil
}

// AfterIteration implements core.IterationHook. It snapshots the runs only
// when the pass continues: EndIteration has folded any phase state into the
// vertices and Gather swapped the frontiers, so the snapshot is exactly what
// iteration iter+1 starts from. A terminating pass needs no snapshot — its
// checkpoints are removed on success. Checkpoints of earlier iterations
// outlive a failed write on purpose — they are what a retry resumes from.
// Then it slices the devices' retry counters into the iteration's window;
// runPass overwrites the accrual with the exact total at the end, so the
// sampling cannot drift the run-level stat.
func (d *diskPass) AfterIteration(iter int, continues bool, pass *core.Stats) error {
	pp := d.pp
	if d.snaps != nil && continues {
		cpStart := time.Now()
		n, err := pp.writeCheckpoint(iter, d.snaps)
		if err != nil {
			return err
		}
		pass.BytesWritten += n
		if tr := pp.cfg.Tracer; tr != nil {
			tr.Span(0, "checkpoint", cpStart, time.Since(cpStart), map[string]int64{"iter": int64(iter), "bytes": n})
		}
	}
	now := retries(pp.cfg)
	pass.IORetries += now - d.retries
	d.retries = now
	return nil
}

// layoutStats reports the compressed layout as written so far — encoded
// tile count and physical over logical bytes, both orientations — on st.
func (pp *Prepared) layoutStats(st *core.Stats) {
	var physTiles, logicalTiles int64
	pp.mu.Lock()
	for _, t := range []*diskTiles{pp.tilesFwd, pp.tilesBwd} {
		if t != nil && t.compressed {
			st.TilesCompressed += t.tilesCompressed
			physTiles += t.physBytes
			logicalTiles += t.logicalBytes
		}
	}
	pp.mu.Unlock()
	if logicalTiles > 0 {
		st.CompressedRatio = float64(physTiles) / float64(logicalTiles)
	}
}

// Scatter implements core.PassEngine: it reads each partition's edge file
// of dir (or only its needed tile segments) once and feeds every chunk to
// every run that needs the partition. A partition planned tile by tile
// delivers only the blocks of its tiles whose span some needing run's
// frontier meets; the records of the others are skipped like a skipped
// tile's.
func (d *diskPass) Scatter(ctx context.Context, dir core.Direction, subs []core.JobRun, pass *core.Stats) error {
	pp := d.pp
	tr := pp.cfg.Tracer
	files, tiles, index := d.streams[dir].files, d.streams[dir].tiles, d.streams[dir].index
	for p := 0; p < pp.k; p++ {
		if err := ctx.Err(); err != nil { // between partition files
			return err
		}
		var pStart time.Time
		if tr != nil {
			pStart = time.Now()
		}
		fileRecs := tiles.totalRecs(p)
		d.plan.Plan(subs, p, fileRecs, index != nil)
		needing := d.plan.Needing
		if len(needing) == 0 {
			// No run reaches the partition: by the FrontierProgram contract
			// every edge here is a no-op, so its edge file is never read. An
			// empty file elides nothing, so it is not counted.
			if fileRecs > 0 {
				pass.EdgesSkipped += fileRecs
				pass.PartitionsSkipped++
			}
			continue
		}
		var need func(core.SrcSpan) bool
		if d.plan.Tiled {
			// Read only the segments whose tiles some run's frontier
			// reaches: a tile no run needs is a byte range never read. In
			// a tile read, a block no run needs is neither decoded nor
			// scattered.
			d.ids = d.plan.NeededTiles(index, p, d.ids)
			need = d.need
		}
		segs, skippedRecs, skippedTiles := planSegments(tiles, p, d.plan.Tiled, d.ids, d.segs)
		d.segs = segs
		pass.EdgesSkipped += skippedRecs
		pass.TilesSkipped += skippedTiles
		for _, r := range needing {
			r.SkipTiles(skippedRecs, skippedTiles)
		}
		if len(segs) == 0 {
			continue
		}
		// A run readies its sink — one with a vertex store loads the
		// partition's vertex window — only for a partition that is actually
		// read. Each run has the one sink, fed by one goroutine (feedJobs),
		// so no run's transport is ever sent to concurrently.
		scatters := d.scatters[:len(needing)]
		for i, r := range needing {
			scatters[i] = r.NewScatter(0, p, fileRecs)
		}
		io, skippedBlocks, err := pp.streamPartition(ctx, &d.rd, files, tiles, p, segs, need, func(chunk []core.Edge) error {
			return feedJobs(scatters, chunk)
		})
		pass.EdgesSkipped += skippedBlocks
		for _, r := range needing {
			r.SkipTiles(skippedBlocks, 0)
		}
		pEdges := io.logical/edgeRecSize - skippedBlocks
		pass.EdgesStreamed += pEdges
		pass.SequentialRefs += pEdges
		pass.BytesStreamed += pEdges * edgeRecSize
		io.addTo(pass)
		if err != nil {
			return err
		}
		for _, s := range scatters {
			if err := s.Flush(); err != nil {
				return err
			}
		}
		if tr != nil && pEdges > 0 {
			tr.Span(0, "partition", pStart, time.Since(pStart), map[string]int64{"p": int64(p), "edges": pEdges, "jobs": int64(len(needing))})
		}
	}
	return nil
}

// feedJobs scatters one read chunk for every subscribing job — the read is
// paid once, the compute proceeds in parallel across jobs. It returns the
// first sink failure, which ends the partition's read.
func feedJobs(scatters []core.JobScatter, chunk []core.Edge) error {
	if len(scatters) == 1 {
		return scatters[0].Edges(chunk)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(scatters))
	for i, sc := range scatters {
		wg.Add(1)
		go func(i int, sc core.JobScatter) {
			defer wg.Done()
			errs[i] = sc.Edges(chunk)
		}(i, sc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
