package diskengine

// runmany.go is the out-of-core engine's dataset layer and its one
// iteration loop. A Prepared holds a dataset's pre-processing output — the
// input edge list shuffled once into partition edge files, the tile source
// index built during that shuffle, and the lazily built transposed files —
// so the shuffle is paid once per dataset instead of once per run. runPass
// then drives any number of runs (core.JobRun) from one pass over the edge
// files per iteration: each chunk read from a file is handed to every
// subscribing run's scatter sink, so the edge-file I/O that dominates
// out-of-core runs is amortized across co-scheduled jobs (BytesRead drops
// toward 1/K of K sequential runs; the figshare experiment gates it).
//
// One loop, two run kinds. The jobs of a program set (RunMany, RunJob) run
// as core.jobRuns, which keep their vertex state and update streams in
// memory — the §3.2 bypass optimizations applied unconditionally. That is a
// serving design choice, not a loss of generality: the jobs scheduler's
// admission control only co-schedules jobs whose combined footprint
// (core.Job.MemoryEstimate) fits the budget, which is exactly the regime
// where the bypasses are legal. A job too big for the budget runs solo
// through Run, whose one run is the engine[V, M] of diskengine.go: the same
// loop, the same Prepared, the same partition reader (streamPartition), but
// a run that may spill vertex windows and update files to the device and
// parallelizes inside a chunk.
//
// Fault tolerance composes too: under Config.Checkpoint a pass snapshots
// every job's resumable state after each completed iteration (see
// checkpoint.go), so a killed or faulted pass restarted with the
// same prefix resumes from the last completed iteration — the path
// cmd/xstream's -checkpoint flag takes through RunJob.
//
// Selective streaming composes: a partition's edge file is not read at all
// when no run's frontier reaches it, and when every subscribing run is
// partially active the file is read only in the segments whose tiles some
// run needs (the frontier union). Within a streamed chunk every run
// scatters all records — extra records are wasted edges by the
// FrontierProgram contract, never wrong results.

import (
	"context"
	"fmt"
	"math"
	"sync"
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
// plus tile index — and the engine's only dataset layer: a handle from
// Prepare is shared read-only by any number of RunMany passes, and a solo
// Run makes one for itself. Every pass over it, of either kind, is a
// runPass. Close removes the files.
type Prepared struct {
	cfg         Config
	k           int
	part        core.Split
	asg         *core.Assignment
	partName    string
	shufPlan    streambuf.Plan
	nv, ne      int64
	bufEdgeRecs int

	mu        sync.Mutex
	edgeFiles []*partFile
	bwdFiles  []*partFile
	tilesFwd  *diskTiles // nil: raw files nobody reads selectively
	tilesBwd  *diskTiles
	closed    bool
}

// Prepare ingests a graph once for shared-pass execution on cfg.Device:
// it plans the partitioning (paying any clustering passes now), rewrites
// the edge stream through the relabeling, and shuffles it into partition
// edge files, indexing tile source summaries along the way. The handle
// serves any number of jobs until Close.
func Prepare(g core.EdgeSource, cfg Config) (*Prepared, error) {
	return prepare(g, cfg, sharedVertexBytes, true)
}

// prepare is Prepare with an explicit per-vertex state size for the §3.4
// partition sizing — Run and the direct RunMany/RunJob paths know their
// jobs' actual sizes — and the choice whether to index tiles during the
// shuffle. A cached handle always does: it cannot know which job will read
// selectively. A solo run knows, and a dense raw one skips the index and
// verifies each file whole against its append checksum. The compressed
// layout needs the index unconditionally — it is the only record of where
// each tile's bytes live.
func prepare(g core.EdgeSource, cfg Config, vertexBytes int64, index bool) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if cfg.Device == nil {
		return nil, fmt.Errorf("diskengine: Config.Device is required")
	}
	nv, ne := g.NumVertices(), g.NumEdges()

	k := cfg.Partitions
	if k == 0 {
		s, m := int64(cfg.IOUnit), cfg.MemoryBudget
		vb := nv * vertexBytes
		for cand := 1; cand <= 1<<20; cand <<= 1 {
			if vb/int64(cand)+5*s*int64(cand) <= m {
				k = cand
				break
			}
			if 5*s*int64(cand) > m {
				break
			}
		}
		if k == 0 {
			// The left side is smallest at K = sqrt(N/5S), where it is 2·sqrt(5NS).
			return nil, fmt.Errorf("diskengine: no partition count satisfies N/K + 5·S·K ≤ M with N=%d S=%d M=%d (need ≥ %d bytes)",
				vb, s, m, int64(2*math.Sqrt(float64(vb)*float64(5*s))))
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

	// Partitioning policy: plan the assignment (a locality-aware partitioner
	// pays its streaming passes here) and rewrite the edge stream through the
	// relabeling.
	pr := cfg.Partitioner
	if pr == nil {
		pr = core.RangePartitioner{}
	}
	asg, err := pr.Assign(g, k)
	if err != nil {
		return nil, fmt.Errorf("diskengine: partitioner %s: %w", pr.Name(), err)
	}
	if err := asg.Validate(nv); err != nil {
		return nil, fmt.Errorf("diskengine: partitioner %s: %w", pr.Name(), err)
	}
	if !asg.Identity() {
		g = graphio.Relabeled(g, asg.Relabel)
	}

	pp := &Prepared{
		cfg: cfg, k: k, part: asg.Split, asg: asg, partName: pr.Name(),
		shufPlan: plan, nv: nv, ne: ne, bufEdgeRecs: bufEdgeRecs,
	}
	pp.edgeFiles = make([]*partFile, k)
	for p := 0; p < k; p++ {
		if pp.edgeFiles[p], err = createPartFile(cfg.Device, fmt.Sprintf("%sds-p%04d.edges", cfg.Prefix, p)); err != nil {
			pp.removeFiles()
			return nil, err
		}
	}
	if index || cfg.CompressTiles {
		pp.tilesFwd = newDiskTilesFor(k, cfg.TileEdges, cfg.CompressTiles)
	}
	if err := partitionEdgesInto(g, pp.edgeFiles, false, pp.tilesFwd, bufEdgeRecs, plan, pp.part, cfg.Threads); err != nil {
		pp.removeFiles()
		return nil, err
	}
	return pp, nil
}

// NumVertices returns the prepared graph's vertex count.
func (pp *Prepared) NumVertices() int64 { return pp.nv }

// NumEdges returns the prepared graph's edge record count.
func (pp *Prepared) NumEdges() int64 { return pp.ne }

// Partitions returns the shared partition count.
func (pp *Prepared) Partitions() int { return pp.k }

// Bytes returns the handle's resident in-memory footprint: the tile
// indexes plus per-file bookkeeping. The partition edge files themselves
// live on the device (BytesRead accounts their traffic), so an out-of-core
// handle is cheap to keep resident — but not free, which is what the
// dataset registry's memory cap charges.
func (pp *Prepared) Bytes() int64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	const fileBytes = 96 // partFile struct + device handle
	spanBytes := int64(pod.Size[tileSpan]())
	n := int64(len(pp.edgeFiles)+len(pp.bwdFiles)) * fileBytes
	for _, t := range []*diskTiles{pp.tilesFwd, pp.tilesBwd} {
		if t == nil {
			continue
		}
		for _, spans := range t.parts {
			n += int64(len(spans)) * spanBytes
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
	for _, fs := range [][]*partFile{pp.edgeFiles, pp.bwdFiles} {
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
// pass over the forward files. The build's own I/O (one read and one write
// of the whole edge volume) is returned so the triggering run can account
// it.
func (pp *Prepared) files(dir core.Direction) (files []*partFile, tiles *diskTiles, build edgeIO, err error) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return nil, nil, build, fmt.Errorf("diskengine: prepared dataset is closed")
	}
	if dir == core.Forward {
		return pp.edgeFiles, pp.tilesFwd, build, nil
	}
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
		var t *diskTiles
		if pp.tilesFwd != nil {
			t = newDiskTilesFor(pp.k, pp.cfg.TileEdges, pp.cfg.CompressTiles)
		}
		if err := partitionEdgesInto(src, bwd, true, t, pp.bufEdgeRecs, pp.shufPlan, pp.part, pp.cfg.Threads); err != nil {
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
// each edge first. A non-nil tiles index observes every run written,
// building the selective-read tile summaries during the shuffle itself.
func partitionEdgesInto(src core.EdgeSource, files []*partFile, transpose bool, tiles *diskTiles, bufEdgeRecs int, plan streambuf.Plan, part core.Split, threads int) error {
	w := newBucketWriter(bufEdgeRecs, files, plan, func(ed core.Edge) uint32 {
		return part.Of(ed.Src)
	}, threads, nil)
	var comp *tileCompressor
	switch {
	case tiles != nil && tiles.compressed:
		comp = newTileCompressor(files, tiles)
		w.sink = comp.append
	case tiles != nil:
		w.observe = tiles.observe
		defer tiles.finish()
	}
	err := src.Edges(func(batch []core.Edge) error {
		if transpose {
			for i := range batch {
				batch[i].Src, batch[i].Dst = batch[i].Dst, batch[i].Src
			}
		}
		for len(batch) > 0 {
			room := w.Room()
			if room == 0 {
				if err := w.Flush(); err != nil {
					return err
				}
				continue
			}
			take := len(batch)
			if take > room {
				take = room
			}
			if !w.Buf().Append(batch[:take]) {
				return fmt.Errorf("diskengine: edge buffer overflow")
			}
			batch = batch[take:]
		}
		return nil
	})
	if err != nil {
		w.Finish()
		return err
	}
	if err := w.Finish(); err != nil {
		return err
	}
	if comp != nil {
		return comp.finish()
	}
	return nil
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
	for p, f := range pp.edgeFiles {
		io, _, _, err := pp.streamPartition(nil, s.sc, pp.edgeFiles, pp.tilesFwd, p, edgeFileRecs(f, pp.tilesFwd, p), nil, func() {}, fn)
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
// partition p's edge file: it plans the segments to read — the whole file,
// or with a need predicate only the runs of tiles whose source spans
// satisfy it — and streams them through fn under the config's verify and
// prefetch settings. begin runs once before the first chunk, and not at all
// when nothing is planned, so a run readies what scattering needs only for
// a partition that is read.
// Every record is checked against the shuffle invariant before fn sees it:
// a corrupted record must never be dereferenced, and the tile CRC only
// closes at tile granularity, after earlier chunks of the tile have
// scattered, so a bit-flipped Src or Dst would otherwise index outside the
// vertex window or the shuffle plan before verification catches it.
// fileRecs is the file's logical record count (edgeFileRecs). It returns
// the traffic moved and the records and tiles need elided.
func (pp *Prepared) streamPartition(ctx context.Context, rd *edgeScratch, files []*partFile, tiles *diskTiles, p int, fileRecs int64, need func(core.SrcSpan) bool, begin func(), fn func([]core.Edge) error) (io edgeIO, skippedRecs, skippedTiles int64, err error) {
	segs, skippedRecs, skippedTiles := planSegments(tiles, p, need, fileRecs)
	if len(segs) == 0 {
		return io, skippedRecs, skippedTiles, nil
	}
	begin()
	lo, hi := pp.part.Range(p, pp.nv)
	io.read, io.logical, io.checked, err = streamSegments(ctx, rd, files[p], p, tiles, !pp.cfg.NoVerify, segs, pp.bufEdgeRecs, !pp.cfg.NoPrefetch, func(chunk []core.Edge) error {
		for _, ed := range chunk {
			if int64(ed.Src) < lo || int64(ed.Src) >= hi || int64(ed.Dst) >= pp.nv {
				return fmt.Errorf("diskengine: edge file %s: record (%d -> %d) outside partition %d window [%d,%d) of %d vertices: %w",
					files[p].name, ed.Src, ed.Dst, p, lo, hi, pp.nv, storage.ErrCorrupted)
			}
		}
		return fn(chunk)
	})
	return io, skippedRecs, skippedTiles, err
}

// RunMany executes every job of set against g out of core, sharing one
// pass over the edge files per iteration. See Prepared.RunMany. The pass's
// PreprocessTime, TotalTime and "run" span cover the ingest as well.
func RunMany(ctx context.Context, g core.EdgeSource, set core.ProgramSet, cfg Config) ([]core.JobResult, core.Stats, error) {
	start := time.Now()
	vb := vertexBytesOf(set)
	if vb == 0 {
		vb = sharedVertexBytes
	}
	pp, err := prepare(g, cfg, vb, true)
	if err != nil {
		return nil, core.Stats{}, err
	}
	defer pp.Close()
	return pp.runMany(ctx, set, start)
}

// vertexBytesOf returns the widest vertex state in the set.
func vertexBytesOf(set core.ProgramSet) int64 {
	var vb int64
	for _, j := range set {
		if int64(j.VertexBytes()) > vb {
			vb = int64(j.VertexBytes())
		}
	}
	return vb
}

// RunJob executes a single type-erased job — the registry-driven
// counterpart of Run. Unlike Run it holds vertex state and updates in
// memory (see the package notes on the two run kinds).
func RunJob(ctx context.Context, g core.EdgeSource, job *core.Job, cfg Config) (*core.JobResult, error) {
	res, pass, err := RunMany(ctx, g, core.ProgramSet{job}, cfg)
	if err != nil {
		return nil, err
	}
	// A solo pass's shared-side accounting is the job's own.
	core.GraftPass(&res[0].Stats, &pass, false)
	return &res[0], nil
}

// RunMany drives all jobs of set from one pass over the prepared edge
// files per iteration. It returns each job's result plus pass-level stats:
// EdgesStreamed counts every edge record read once however many jobs
// consumed it, EdgesShared the reads the sharing avoided, and
// BytesRead/BytesWritten the device traffic of this pass alone. ctx
// cancels between iterations, files and chunks; nil means Background.
func (pp *Prepared) RunMany(ctx context.Context, set core.ProgramSet) ([]core.JobResult, core.Stats, error) {
	return pp.runMany(ctx, set, time.Now())
}

// runMany is a pass whose runs are a program set's: each job's core.jobRun,
// vertex state and updates in memory.
func (pp *Prepared) runMany(ctx context.Context, set core.ProgramSet, start time.Time) ([]core.JobResult, core.Stats, error) {
	if len(set) == 0 {
		return nil, core.Stats{}, fmt.Errorf("diskengine: RunMany of an empty program set")
	}
	return pp.runPass(ctx, start, set.Label(), func() ([]core.JobRun, error) {
		runs, err := set.NewRuns(pp.jobSetup())
		if err != nil {
			return nil, fmt.Errorf("diskengine: %w", err)
		}
		return runs, nil
	})
}

// jobSetup is the shared context every run of a pass over pp is set up
// under.
func (pp *Prepared) jobSetup() core.JobSetup {
	cfg := pp.cfg
	return core.JobSetup{
		Assignment: pp.asg, NumVertices: pp.nv, NumEdges: pp.ne,
		Threads: cfg.Threads, Plan: pp.shufPlan, UpdateCap: int(pp.ne),
		PrivateBufRecs: basePrivCap,
		NoCombine:      cfg.NoCombine, Selective: cfg.Selective,
		Exchange: cfg.Exchange,
	}
}

// passScratch is what a pass owns for its whole life and every iteration
// reuses: the edge-read buffers, lent to one segment at a time, and — each
// with room for every run of the pass — the runs still live, the ones
// streaming the current direction, the ones needing the current partition
// and their sinks.
type passScratch struct {
	rd       edgeScratch
	live     []core.JobRun
	subs     []core.JobRun
	needing  []core.JobRun
	scatters []core.JobScatter
}

// runPass is the engine's one iteration loop (Figure 6): the merged
// scatter/shuffle over the partition files, then gather, for whatever runs
// newRuns makes — a program set's in-memory runs or the one spillable run
// of a solo Run; the loop cannot tell them apart. newRuns is called once up
// front and again whenever a verified checkpoint fails to load, after the
// half-restored runs were closed, so a failed resume never leaves state
// behind. start is when the pass's work began — before the ingest for a
// pass that prepared its own dataset, on entry for a pass over a cached one
// — so PreprocessTime (start to the last run set up: partitioner, edge
// shuffle, vertex state, transports) and TotalTime mean the same for both.
func (pp *Prepared) runPass(ctx context.Context, start time.Time, label string, newRuns func() ([]core.JobRun, error)) ([]core.JobResult, core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, tr := pp.cfg, pp.cfg.Tracer
	pass := core.Stats{
		Algorithm: label, Engine: "disk:" + cfg.Device.Name(),
		Partitioner: pp.partName, Partitions: pp.k, Threads: cfg.Threads,
	}
	retriesBefore := cfg.Device.Stats().Retries

	runs, err := newRuns()
	if err != nil {
		return nil, pass, err
	}
	// runs is re-filled in place by a failed resume, so the deferred close
	// sees whichever runs the pass ended with.
	defer core.CloseRuns(runs)
	pass.CoJobs = len(runs)
	pass.PreprocessTime = time.Since(start)
	if tr != nil {
		tr.Span(0, "preprocess", start, pass.PreprocessTime, nil)
	}

	// Resume a checkpointed pass from the newest valid snapshot a previous
	// attempt with this prefix left behind: iterations [0, startIter) are
	// restored, not executed. Invalid or corrupt snapshots are ignored,
	// never trusted.
	startIter := 0
	var snaps []core.Snapshotter
	if cfg.Checkpoint {
		snaps = snapshotters(runs)
	}
	if snaps != nil {
		startIter, err = pp.tryResume(&pass, snaps, func() error {
			core.CloseRuns(runs)
			rs, err := newRuns()
			if err != nil {
				return err
			}
			copy(runs, rs)
			copy(snaps, snapshotters(rs))
			return nil
		})
		if err != nil {
			return nil, pass, err
		}
		pass.ResumedIterations = startIter
	}

	sc := &passScratch{
		live: make([]core.JobRun, 0, len(runs)), subs: make([]core.JobRun, 0, len(runs)),
		needing: make([]core.JobRun, 0, len(runs)), scatters: make([]core.JobScatter, len(runs)),
	}
	// Per-iteration retry attribution: the run-level IORetries is a single
	// end-of-pass delta; the loop samples the device counter at every
	// iteration boundary so the per-iteration profile can slice it.
	lastRetries := cfg.Device.Stats().Retries
	for iter := startIter; iter < cfg.MaxIterations; iter++ {
		live := sc.live[:0]
		for _, r := range runs {
			if !r.Done() {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, pass, err
		}
		iterStart := time.Now()
		iterMark := pass.MarkIter()
		for _, r := range live {
			r.StartIteration(iter)
			if err := r.BeginScatter(); err != nil {
				return nil, pass, fmt.Errorf("diskengine: %w", err)
			}
		}

		// One shared scatter per direction a live run asked for; the
		// transposed files are built on first use, and the build's I/O is
		// the triggering pass's.
		t0 := time.Now()
		for _, dir := range []core.Direction{core.Forward, core.Backward} {
			sc.subs = sc.subs[:0]
			for _, r := range live {
				if r.Direction(iter) == dir {
					sc.subs = append(sc.subs, r)
				}
			}
			if len(sc.subs) == 0 {
				continue
			}
			files, tiles, build, err := pp.files(dir)
			if err != nil {
				return nil, pass, err
			}
			build.addTo(&pass)
			if err := pp.scatterShared(ctx, &pass, sc, files, tiles); err != nil {
				return nil, pass, err
			}
		}
		scatterDur := time.Since(t0)
		pass.ScatterTime += scatterDur

		t1 := time.Now()
		// This engine reports the shuffle inside its gather figure (§3), so
		// the shuffle share EndAndGather returns is not split out.
		if _, err := core.EndAndGather(live, cfg.Threads); err != nil {
			return nil, pass, err
		}
		gatherDur := time.Since(t1)
		pass.GatherTime += gatherDur
		stillLive := false
		for _, r := range live {
			if err := r.EndIteration(iter); err != nil {
				return nil, pass, err
			}
			stillLive = stillLive || !r.Done()
		}
		pass.Iterations = iter + 1
		if tr != nil {
			it, jobs := int64(iter), int64(len(live))
			tr.Span(0, "scatter", t0, scatterDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "gather", t1, gatherDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "iteration", iterStart, time.Since(iterStart), map[string]int64{"iter": it})
		}

		// Snapshot only when the pass continues: EndIteration has folded
		// any phase state into the vertices and Gather swapped the
		// frontiers, so the snapshot is exactly what iteration iter+1
		// starts from. A terminating pass needs no snapshot — its
		// checkpoints are removed on success below. Checkpoints of earlier
		// iterations outlive a failed write on purpose — they are what a
		// retry resumes from.
		if snaps != nil && stillLive {
			cpStart := time.Now()
			n, err := pp.writeCheckpoint(iter, snaps)
			if err != nil {
				return nil, pass, err
			}
			pass.BytesWritten += n
			if tr != nil {
				tr.Span(0, "checkpoint", cpStart, time.Since(cpStart), map[string]int64{"iter": int64(iter), "bytes": n})
			}
		}
		// Slice the device retry counter into this iteration's window; the
		// end-of-pass assignment below overwrites the accrual with the exact
		// total, so sampling here cannot drift the run-level stat.
		retriesNow := cfg.Device.Stats().Retries
		pass.IORetries += retriesNow - lastRetries
		lastRetries = retriesNow
		pass.PushIter(iter, iterMark, time.Since(iterStart))
	}
	if snaps != nil {
		pp.removeCheckpoints()
	}

	results, err := core.FinishPass(runs, &pass, start)
	if err != nil {
		return nil, pass, err
	}
	pass.BytesStreamed += pass.EdgesStreamed * edgeRecSize
	pp.layoutStats(&pass)
	pass.IORetries = cfg.Device.Stats().Retries - retriesBefore
	pass.TotalTime = time.Since(start)
	if tr != nil {
		tr.Span(0, "run", start, pass.TotalTime, map[string]int64{
			"iterations": int64(pass.Iterations), "jobs": int64(len(runs)),
		})
	}
	return results, pass, nil
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

// scatterShared reads each partition's edge file (or only its needed tile
// segments) once and feeds every chunk to every run in sc.subs.
func (pp *Prepared) scatterShared(ctx context.Context, pass *core.Stats, sc *passScratch, files []*partFile, tiles *diskTiles) error {
	tr := pp.cfg.Tracer
	for p := 0; p < pp.k; p++ {
		if err := ctx.Err(); err != nil { // between partition files
			return err
		}
		var pStart time.Time
		if tr != nil {
			pStart = time.Now()
		}
		fileRecs := edgeFileRecs(files[p], tiles, p)
		needing := sc.needing[:0]
		allPartial := true
		for _, r := range sc.subs {
			if r.NeedsPartition(p) {
				needing = append(needing, r)
				if !r.PartiallyActive(p) {
					allPartial = false
				}
			} else {
				r.SkipPartition(fileRecs)
			}
		}
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
		if allPartial && tiles != nil {
			// Every subscriber can tile-skip: read only the segments whose
			// tiles some run's frontier reaches. A tile no run needs is a
			// byte range never read — and every subscriber would have
			// skipped at least it in a pass of its own.
			need = func(span core.SrcSpan) bool {
				for _, r := range needing {
					if r.NeedsTile(span) {
						return true
					}
				}
				return false
			}
		}
		// A run readies its sink — a spillable one loads the partition's
		// vertex window — only for a partition that is actually read.
		var scatters []core.JobScatter
		io, skippedRecs, skippedTiles, err := pp.streamPartition(ctx, &sc.rd, files, tiles, p, fileRecs, need, func() {
			scatters = sc.scatters[:len(needing)]
			for i, r := range needing {
				scatters[i] = r.NewScatter(0, p, fileRecs)
			}
		}, func(chunk []core.Edge) error {
			feedJobs(scatters, chunk)
			return nil
		})
		pEdges := io.logical / edgeRecSize
		pass.EdgesStreamed += pEdges
		pass.SequentialRefs += pEdges
		io.addTo(pass)
		if need != nil {
			pass.EdgesSkipped += skippedRecs
			pass.TilesSkipped += skippedTiles
			for _, r := range needing {
				r.SkipTiles(skippedRecs, skippedTiles)
			}
		}
		if err != nil {
			return err
		}
		for _, s := range scatters {
			s.Flush()
		}
		if tr != nil && pEdges > 0 {
			tr.Span(0, "partition", pStart, time.Since(pStart), map[string]int64{"p": int64(p), "edges": pEdges, "jobs": int64(len(needing))})
		}
	}
	return nil
}

// feedJobs scatters one read chunk for every subscribing job — the read is
// paid once, the compute proceeds in parallel across jobs.
func feedJobs(scatters []core.JobScatter, chunk []core.Edge) {
	if len(scatters) == 1 {
		scatters[0].Edges(chunk)
		return
	}
	var wg sync.WaitGroup
	for _, sc := range scatters {
		wg.Add(1)
		go func(sc core.JobScatter) {
			defer wg.Done()
			sc.Edges(chunk)
		}(sc)
	}
	wg.Wait()
}
