package memengine

// runmany.go is the in-memory engine's execution path: every run is a
// shared pass, a solo Run one of a single job. A Prepared caches
// everything about a dataset that is job-independent — the edge list
// shuffled into partition chunks, the lazily built transpose, the tile
// source index — and RunMany drives any number of co-scheduled jobs
// (core.ProgramSet) from one edge stream per iteration. Each streamed run
// or tile is handed to every subscribing job's scatter sink, so the
// sequential edge stream — the dominant, fixed cost of X-Stream's model —
// is paid once per pass instead of once per job. Jobs with a frontier
// (core.FrontierProgram, Config.Selective) subscribe per partition and per
// tile: a chunk is skipped only when *no* job needs it (the frontier
// union), and a streamed tile is still withheld from jobs whose own
// frontier misses it, so every job's results and skip stats match a run
// on its own. Jobs drop out as they converge; the pass ends when all are
// done.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pod"
	"repro/internal/streambuf"
)

// Prepare sizes partitions for jobs of unknown state size using a nominal
// footprint (Config.Partitions overrides): a Prepared layout is shared by
// every algorithm run against the dataset.
const (
	sharedVertexBytes = 16
	sharedUpdateBytes = 12
)

// Prepared is a dataset's cached in-memory execution state, built once by
// Prepare and shared — read-only — by any number of RunMany passes. The
// transposed edge buffer and the selective-streaming tile indexes are built
// lazily, at most once. Safe for concurrent RunMany calls.
type Prepared struct {
	cfg      Config
	plan     streambuf.Plan
	asg      *core.Assignment
	part     core.Split
	partName string
	nv, ne   int64

	mu       sync.Mutex
	fwd, bwd *streambuf.Buffer[core.Edge]
	tilesFwd [][]core.SrcSpan
	tilesBwd [][]core.SrcSpan
}

// Prepare ingests a graph once for shared-pass execution: it plans the
// partitioning (paying any locality-aware clustering passes now), rewrites
// the edge stream through the relabeling, and shuffles it into partition
// chunks. The returned handle is immutable from the caller's perspective
// and serves any number of jobs.
func Prepare(g core.EdgeSource, cfg Config) (*Prepared, error) {
	return prepare(g, cfg, core.Footprint(sharedVertexBytes, sharedUpdateBytes))
}

// prepare is Prepare with an explicit §4 vertex footprint for partition
// auto-sizing — the direct Run/RunJob/RunMany paths size from their jobs'
// actual record widths (the paper's rule), not the nominal one.
func prepare(g core.EdgeSource, cfg Config, footprint int) (*Prepared, error) {
	cfg = cfg.withDefaults()
	nv, ne := g.NumVertices(), g.NumEdges()

	k := cfg.Partitions
	if k == 0 {
		k = core.MemPartitions(nv, footprint, cfg.CacheBytes)
	}
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("memengine: partition count %d is not a power of two", k)
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		const cacheLineBytes = 64 // §4.2: one staging line per bucket stays cache-resident
		fanout = core.MemFanout(cfg.CacheBytes, cacheLineBytes)
	}
	if fanout > k && k > 1 {
		fanout = k
	}
	plan, err := streambuf.NewPlan(k, fanout)
	if err != nil {
		return nil, fmt.Errorf("memengine: %w", err)
	}

	pr := cfg.Partitioner
	if pr == nil {
		pr = core.RangePartitioner{}
	}
	asg, err := pr.Assign(g, k)
	if err != nil {
		return nil, fmt.Errorf("memengine: partitioner %s: %w", pr.Name(), err)
	}
	if err := asg.Validate(nv); err != nil {
		return nil, fmt.Errorf("memengine: partitioner %s: %w", pr.Name(), err)
	}
	if !asg.Identity() {
		g = graphio.Relabeled(g, asg.Relabel)
	}
	fwd, err := loadShuffled(g, plan, asg.Split, cfg.Threads)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		cfg: cfg, plan: plan, asg: asg, part: asg.Split, partName: pr.Name(),
		nv: nv, ne: ne, fwd: fwd,
	}, nil
}

// NumVertices returns the prepared graph's vertex count.
func (pp *Prepared) NumVertices() int64 { return pp.nv }

// NumEdges returns the prepared graph's edge record count.
func (pp *Prepared) NumEdges() int64 { return pp.ne }

// Partitions returns the shared partition count.
func (pp *Prepared) Partitions() int { return pp.part.K }

// Bytes returns the handle's resident memory footprint: the shuffled edge
// buffer, the transposed buffer when it has been built, and the tile
// indexes. The serving layer's dataset registry charges this against its
// memory cap when deciding what to evict.
func (pp *Prepared) Bytes() int64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	edgeBytes := int64(pod.Size[core.Edge]())
	spanBytes := int64(pod.Size[core.SrcSpan]())
	n := int64(pp.fwd.Cap()) * edgeBytes
	if pp.bwd != nil {
		n += int64(pp.bwd.Cap()) * edgeBytes
	}
	for _, tiles := range [][][]core.SrcSpan{pp.tilesFwd, pp.tilesBwd} {
		for _, t := range tiles {
			n += int64(len(t)) * spanBytes
		}
	}
	return n
}

// edges returns the edge buffer (and, when wanted, tile index) for a
// direction, building the transpose and index lazily, at most once. The
// transpose is one count pass and one placement pass over the forward
// buffer, straight into the transposed buffer: no transposed copy is made
// to shuffle from.
func (pp *Prepared) edges(dir core.Direction, needTiles bool) (*streambuf.Buffer[core.Edge], [][]core.SrcSpan) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	buf, tiles := pp.fwd, &pp.tilesFwd
	if dir == core.Backward {
		if pp.bwd == nil {
			pp.bwd = transpose(pp.fwd, pp.part, pp.cfg.Threads)
		}
		buf, tiles = pp.bwd, &pp.tilesBwd
	}
	if needTiles && *tiles == nil {
		*tiles = buildTileIndex(buf, pp.part.K, pp.cfg.TileEdges)
	}
	return buf, *tiles
}

// RunMany executes every job of set against g with the in-memory engine,
// sharing one edge stream per iteration. See Prepared.RunMany. The pass's
// PreprocessTime, TotalTime and "run" span cover the ingest as well.
func RunMany(ctx context.Context, g core.EdgeSource, set core.ProgramSet, cfg Config) ([]core.JobResult, core.Stats, error) {
	start := time.Now()
	foot := 0
	for _, j := range set {
		if f := core.Footprint(j.VertexBytes(), j.UpdateBytes()); f > foot {
			foot = f
		}
	}
	if foot == 0 {
		foot = core.Footprint(sharedVertexBytes, sharedUpdateBytes)
	}
	pp, err := prepare(g, cfg, foot)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return pp.runMany(ctx, set, start)
}

// RunJob executes a single type-erased job — the registry-driven form of
// Run, used by cmd/xstream and single-job serving paths.
func RunJob(ctx context.Context, g core.EdgeSource, job *core.Job, cfg Config) (*core.JobResult, error) {
	res, pass, err := RunMany(ctx, g, core.ProgramSet{job}, cfg)
	if err != nil {
		return nil, err
	}
	// A solo pass's shared-side accounting is the job's own.
	core.GraftPass(&res[0].Stats, &pass)
	return &res[0], nil
}

// RunMany drives all jobs of set from one edge stream per iteration. It
// returns each job's result (final vertex states in input order plus the
// job's own stats) and the pass-level stats, whose EdgesStreamed counts
// every edge record once however many jobs consumed it and whose
// EdgesShared counts the reads the sharing avoided. ctx cancels the pass
// between iterations and between partition chunks; nil means Background.
func (pp *Prepared) RunMany(ctx context.Context, set core.ProgramSet) ([]core.JobResult, core.Stats, error) {
	return pp.runMany(ctx, set, time.Now())
}

// runMany is the engine's one iteration loop. start is when the pass's
// work began — before the ingest for a pass that prepared its own dataset,
// on entry for a pass over a cached one — so PreprocessTime (start to the
// last job set up: partitioner, edge shuffle, vertex state, transports)
// and TotalTime mean the same for both.
func (pp *Prepared) runMany(ctx context.Context, set core.ProgramSet, start time.Time) ([]core.JobResult, core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(set) == 0 {
		return nil, core.Stats{}, fmt.Errorf("memengine: RunMany of an empty program set")
	}
	cfg := pp.cfg
	tr := cfg.Tracer
	pass := core.Stats{
		Algorithm: set.Label(), Engine: "memory", Partitioner: pp.partName,
		Partitions: pp.part.K, Threads: cfg.Threads, CoJobs: len(set),
	}

	runs, err := set.NewRuns(core.JobSetup{
		Assignment: pp.asg, NumVertices: pp.nv, NumEdges: pp.ne,
		Threads: cfg.Threads, Plan: pp.plan, UpdateCap: int(pp.ne),
		PrivateBufBytes: cfg.PrivateBufBytes,
		NoCombine:       cfg.NoCombine, Selective: cfg.Selective,
	})
	if err != nil {
		return nil, pass, fmt.Errorf("memengine: %w", err)
	}
	defer core.CloseRuns(runs)
	pass.PreprocessTime = time.Since(start)
	if tr != nil {
		tr.Span(0, "preprocess", start, pass.PreprocessTime, nil)
	}

	live := make([]core.JobRun, 0, len(runs))
	sc := newScatterScratch(len(runs), cfg.Threads)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		live = live[:0]
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
				return nil, pass, fmt.Errorf("memengine: %w", err)
			}
		}

		// One shared scatter per direction a live job asked for: jobs that
		// agree on orientation (the common same-algorithm batch) share the
		// stream; disagreeing jobs cost one extra stream, never one per job.
		// The streams are resolved first — the transpose is a streaming
		// pass of its own (§2), built the first time a job asks for it, and
		// is not scatter time.
		for dir := range sc.streams {
			st := &sc.streams[dir]
			st.subs = st.subs[:0]
			needTiles := false
			for _, r := range live {
				if r.Direction(iter) == core.Direction(dir) {
					st.subs = append(st.subs, r)
					if !r.Dense() {
						needTiles = true
					}
				}
			}
			if len(st.subs) == 0 {
				continue
			}
			st.edges, st.tiles = pp.edges(core.Direction(dir), needTiles)
		}
		t0 := time.Now()
		for dir := range sc.streams {
			if st := &sc.streams[dir]; len(st.subs) > 0 {
				if err := pp.scatterShared(ctx, &pass, sc, st); err != nil {
					return nil, pass, err
				}
			}
		}
		scatterDur := time.Since(t0)
		pass.ScatterTime += scatterDur

		// Shuffle, then gather (with selective scheduling it doubles as the
		// census for the next frontier). Co-scheduled jobs overlap the two,
		// so the pass splits the phase where the last stream was sealed.
		t1 := time.Now()
		shuffleDur, err := core.EndAndGather(live, cfg.Threads)
		if err != nil {
			return nil, pass, fmt.Errorf("memengine: %w", err)
		}
		gatherDur := time.Since(t1) - shuffleDur
		pass.ShuffleTime += shuffleDur
		pass.GatherTime += gatherDur
		for _, r := range live {
			if err := r.EndIteration(iter); err != nil {
				return nil, pass, fmt.Errorf("memengine: %w", err)
			}
		}
		pass.Iterations = iter + 1
		pass.PushIter(iter, iterMark, time.Since(iterStart))
		if tr != nil {
			it, jobs := int64(iter), int64(len(live))
			tr.Span(0, "scatter", t0, scatterDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "shuffle", t1, shuffleDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "gather", t1.Add(shuffleDur), gatherDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "iteration", iterStart, time.Since(iterStart), map[string]int64{"iter": it})
		}
	}

	results, err := core.FinishPass(runs, &pass, start)
	if err != nil {
		return nil, pass, err
	}
	pass.TotalTime = time.Since(start)
	if tr != nil {
		tr.Span(0, "run", start, pass.TotalTime, map[string]int64{
			"iterations": int64(pass.Iterations), "jobs": int64(len(set)),
		})
	}
	return results, pass, nil
}

// scatterScratch is the pass-owned scratch of the shared scatter, made once
// per pass and reused by every iteration: per edge list orientation the
// iteration's stream, and for each engine worker the jobs that need the
// partition it is on and their sinks. Worker w owns needing[w*n:(w+1)*n]
// and the same window of scatters, n being the number of jobs in the set.
type scatterScratch struct {
	n        int
	streams  [2]edgeStream // indexed by core.Direction
	needing  []core.JobRun
	scatters []core.JobScatter
}

// edgeStream is one orientation's share of an iteration: the live jobs
// that stream it and the edge buffer (with its tile index, when a
// subscriber has a frontier) they share.
type edgeStream struct {
	subs  []core.JobRun
	edges *streambuf.Buffer[core.Edge]
	tiles [][]core.SrcSpan
}

func newScatterScratch(jobs, workers int) *scatterScratch {
	sc := &scatterScratch{
		n:        jobs,
		needing:  make([]core.JobRun, jobs*workers),
		scatters: make([]core.JobScatter, jobs*workers),
	}
	for dir := range sc.streams {
		sc.streams[dir].subs = make([]core.JobRun, 0, jobs)
	}
	return sc
}

// scatterShared streams every partition's edge chunk of st once, feeding
// each run or tile to every subscribing job through that job's sink for the
// worker — thread-private buffers, §4.1: plain append buffers normally,
// combining buffers when the program has a Combiner; the job owns them, one
// per worker, for the life of its run. Partitions are claimed by worker
// threads from a shared cursor (work stealing, §4.1). A cancelled context or
// a failed sink stops the walk: no worker starts another partition, and the
// first such error is returned.
func (pp *Prepared) scatterShared(ctx context.Context, pass *core.Stats, sc *scatterScratch, st *edgeStream) error {
	edges, tiles := st.edges, st.tiles
	var streamed, skippedEdges, skippedParts, skippedTiles atomic.Int64
	var stopped atomic.Bool
	var stopMu sync.Mutex
	var stopErr error
	stop := func(err error) {
		stopMu.Lock()
		if stopErr == nil {
			stopErr = err
		}
		stopMu.Unlock()
		stopped.Store(true)
	}
	tr := pp.cfg.Tracer

	forEachPartition(pp.part.K, pp.cfg.Threads, pp.cfg.NoWorkStealing, func(w, p int) {
		if stopped.Load() {
			return
		}
		if err := ctx.Err(); err != nil {
			stop(err)
			return
		}
		var pStart time.Time
		if tr != nil {
			pStart = time.Now()
		}
		var pEdges int64
		chunkLen := int64(edges.BucketLen(p))
		needing := sc.needing[w*sc.n : w*sc.n : (w+1)*sc.n]
		partial := false
		for _, r := range st.subs {
			if r.NeedsPartition(p) {
				needing = append(needing, r)
				if r.PartiallyActive(p) {
					partial = true
				}
			} else {
				r.SkipPartition(chunkLen)
			}
		}
		if len(needing) == 0 {
			// No job needs the chunk: the pass skips it whole. An edgeless
			// partition elides nothing, so it is not counted.
			if chunkLen > 0 {
				skippedEdges.Add(chunkLen)
				skippedParts.Add(1)
			}
			return
		}
		scatters := sc.scatters[w*sc.n : w*sc.n+len(needing)]
		for i, r := range needing {
			scatters[i] = r.NewScatter(w, p, chunkLen)
		}
		// err is the partition's first sink failure; once set, no sink is
		// fed another edge.
		var err error
		if partial && tiles != nil {
			// Tile-granular scheduling: a tile is streamed when any job's
			// frontier intersects its source span, and still withheld from
			// the jobs whose own frontier misses it — per-job results and
			// skip accounting match a solo selective run.
			spans := tiles[p]
			ti := 0
			edges.BucketTiles(p, pp.cfg.TileEdges, func(tile []core.Edge) {
				if err != nil {
					return
				}
				span := spans[ti]
				ti++
				took := false
				for i, r := range needing {
					if r.NeedsTile(span) {
						if err = scatters[i].Edges(tile); err != nil {
							return
						}
						took = true
					} else {
						r.SkipTiles(int64(len(tile)), 1)
					}
				}
				if took {
					streamed.Add(int64(len(tile)))
					pEdges += int64(len(tile))
				} else {
					skippedEdges.Add(int64(len(tile)))
					skippedTiles.Add(1)
				}
			})
		} else {
			edges.Bucket(p, func(run []core.Edge) {
				if err != nil {
					return
				}
				for _, sc := range scatters {
					if err = sc.Edges(run); err != nil {
						return
					}
				}
				streamed.Add(int64(len(run)))
				pEdges += int64(len(run))
			})
		}
		for _, sc := range scatters {
			if ferr := sc.Flush(); err == nil {
				err = ferr
			}
		}
		if err != nil {
			stop(err)
			return
		}
		if tr != nil {
			tr.Span(1+w, "partition", pStart, time.Since(pStart),
				map[string]int64{"p": int64(p), "edges": pEdges, "jobs": int64(len(needing))})
		}
	})
	if stopErr != nil {
		return stopErr
	}
	n := streamed.Load()
	pass.EdgesStreamed += n
	pass.EdgesSkipped += skippedEdges.Load()
	pass.PartitionsSkipped += skippedParts.Load()
	pass.TilesSkipped += skippedTiles.Load()
	pass.BytesStreamed += n * int64(pod.Size[core.Edge]())
	pass.SequentialRefs += n
	return nil
}

// forEachPartition runs fn over all partitions, passing the worker index
// (0-based; tracers key per-worker span tracks off it) alongside the
// partition: by default workers claim the next unprocessed partition from
// a shared cursor (work stealing, §4.1); noSteal switches to the static
// round-robin assignment of the NoWorkStealing ablation.
func forEachPartition(k, workers int, noSteal bool, fn func(w, p int)) {
	if !noSteal {
		core.ForEachClaimed(k, workers, fn)
		return
	}
	workers = min(workers, k)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < k; p += workers {
				fn(w, p)
			}
		}(w)
	}
	wg.Wait()
}

// loadShuffled streams src into a buffer and shuffles it by source
// partition — the engine's entire pre-processing (one pass, no sort).
func loadShuffled(src core.EdgeSource, plan streambuf.Plan, part core.Split, threads int) (*streambuf.Buffer[core.Edge], error) {
	a := streambuf.New[core.Edge](int(src.NumEdges()))
	err := src.Edges(func(batch []core.Edge) error {
		if !a.Append(batch) {
			return fmt.Errorf("memengine: edge source produced more than its declared %d edges", src.NumEdges())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := streambuf.New[core.Edge](a.Cap())
	return streambuf.Shuffle(a, b, plan, threads, func(ed core.Edge) uint32 {
		return part.Of(ed.Src)
	}), nil
}

// transpose builds the transposed edge buffer — fwd's edges with source and
// destination swapped, bucketed by the new source's partition — in the
// layout a shuffle of the transposed sequence would give: that sequence
// (fwd's buckets in partition order, each in Bucket order) cut into one
// equal slice per thread, each slice ordered stably by partition. Every
// shuffle stage is stable, so this is the layout at any fanout, and it is
// reached in one count pass and one placement pass over fwd per slice, each
// edge written once, into the only edge buffer allocated. Each edge's place
// is fixed by the counts, so the result does not depend on which worker
// wrote it, or when.
func transpose(fwd *streambuf.Buffer[core.Edge], part core.Split, threads int) *streambuf.Buffer[core.Edge] {
	var runs [][]core.Edge
	for p := 0; p < part.K; p++ {
		fwd.Bucket(p, func(run []core.Edge) { runs = append(runs, run) })
	}
	n := fwd.Len()
	// share calls fn on the pieces of the transposed sequence in slice i.
	share := func(i int, fn func([]core.Edge)) {
		lo, hi := i*n/threads, (i+1)*n/threads
		off := 0
		for _, run := range runs {
			if a, b := max(lo-off, 0), min(hi-off, len(run)); a < b {
				fn(run[a:b])
			}
			if off += len(run); off >= hi {
				return
			}
		}
	}
	counts := make([][]int, threads)
	core.ForEachClaimed(threads, threads, func(_, i int) {
		c := make([]int, part.K)
		share(i, func(run []core.Edge) {
			for _, ed := range run {
				c[part.Of(ed.Dst)]++
			}
		})
		counts[i] = c
	})
	bwd, dst := streambuf.NewBucketed[core.Edge](fwd.Cap(), counts)
	core.ForEachClaimed(threads, threads, func(_, i int) {
		cur := counts[i]
		share(i, func(run []core.Edge) {
			for _, ed := range run {
				p := part.Of(ed.Dst)
				dst[cur[p]] = core.Edge{Src: ed.Dst, Dst: ed.Src, Weight: ed.Weight}
				cur[p]++
			}
		})
	})
	return bwd
}
