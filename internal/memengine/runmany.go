package memengine

// runmany.go is the in-memory engine's execution path: every run is a
// shared pass, a solo Run one of a single job. A Prepared caches
// everything about a dataset that is job-independent — the edge list
// shuffled into partition chunks, every vertex's out-degree, the lazily
// built transpose, the tile source index — and RunMany drives any number
// of co-scheduled jobs (core.ProgramSet) from one edge stream per iteration
// through core.RunPass, the iteration loop of both engines; this file
// supplies only how a partition's edges reach the scatter (memPass). Each
// streamed chunk, or run of tiles, is handed to every subscribing job's
// scatter sink, so the sequential edge stream — the dominant, fixed cost of
// X-Stream's model — is paid once per pass instead of once per job. Jobs
// with a frontier (core.FrontierProgram, Config.Selective) subscribe per
// partition and per tile, and core.PartitionPlan decides and books it all:
// a chunk is skipped only when *no* job needs it (the frontier union), a
// partition some job is partially active in is streamed as runs of
// consecutive tiles, and a run of tiles is handed to each job less the
// tiles its own frontier misses, so every job's results and skip stats
// match a run on its own. This file only moves the records: one Edges call
// per run. Jobs drop out as they converge; the pass ends when all are done.

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
// out-degrees are counted with the shuffle; the transposed edge buffer,
// which only a Backward iteration (SCC's) streams, and the
// selective-streaming tile indexes are built lazily, at most once. Safe for
// concurrent RunMany calls.
type Prepared struct {
	cfg      Config
	plan     streambuf.Plan
	asg      *core.Assignment
	part     core.Split
	partName string
	nv, ne   int64
	// deg is every vertex's out-degree in relabeled order, counted once
	// from the shuffled edge buffer and read by DegreeInit programs.
	deg []uint32

	mu       sync.Mutex
	fwd, bwd *streambuf.Buffer[core.Edge]
	tilesFwd *core.TileIndex
	tilesBwd *core.TileIndex
}

// Prepare ingests a graph once for shared-pass execution: it plans the
// partitioning (paying any locality-aware clustering passes now), rewrites
// the edge stream through the relabeling, and shuffles it into partition
// chunks, counting every vertex's out-degree from them. The returned
// handle is immutable from the caller's perspective and serves any number
// of jobs.
func Prepare(g core.EdgeSource, cfg Config) (*Prepared, error) {
	return prepare(g, cfg, Partitions(g.NumVertices(), cfg))
}

// Partitions is the partition count Prepare gives a graph of nv vertices
// under cfg: cfg.Partitions when set, else the §4 cache rule for the
// nominal footprint. Admission control sizes a run's update windows by it.
func Partitions(nv int64, cfg Config) int {
	return partitions(nv, cfg, core.Footprint(sharedVertexBytes, sharedUpdateBytes))
}

// partitions is cfg.Partitions when set, else the §4 cache rule for nv
// vertices of footprint bytes each.
func partitions(nv int64, cfg Config, footprint int) int {
	if cfg.Partitions != 0 {
		return cfg.Partitions
	}
	return core.MemPartitions(nv, footprint, core.CacheBytes)
}

// prepare is Prepare into k partitions — the direct Run/RunJob/RunMany
// paths size k from their jobs' actual record widths (the paper's rule),
// not the nominal footprint.
func prepare(g core.EdgeSource, cfg Config, k int) (*Prepared, error) {
	cfg = withDefaults(cfg)
	nv, ne := g.NumVertices(), g.NumEdges()
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("memengine: partition count %d is not a power of two", k)
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		const cacheLineBytes = 64 // §4.2: one staging line per bucket stays cache-resident
		fanout = core.MemFanout(core.CacheBytes, cacheLineBytes)
	}
	if fanout > k && k > 1 {
		fanout = k
	}
	plan, err := streambuf.NewPlan(k, fanout)
	if err != nil {
		return nil, fmt.Errorf("memengine: %w", err)
	}

	g, asg, partName, err := graphio.Partition(g, cfg.Partitioner, k)
	if err != nil {
		return nil, fmt.Errorf("memengine: %w", err)
	}
	fwd, err := loadShuffled(g, plan, asg.Split, cfg.Threads)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		cfg: cfg, plan: plan, asg: asg, part: asg.Split, partName: partName,
		nv: nv, ne: ne, fwd: fwd, deg: countDegrees(fwd, asg.Split, nv, cfg.Threads),
	}, nil
}

// NumVertices returns the prepared graph's vertex count.
func (pp *Prepared) NumVertices() int64 { return pp.nv }

// NumEdges returns the prepared graph's edge record count.
func (pp *Prepared) NumEdges() int64 { return pp.ne }

// Partitions returns the shared partition count.
func (pp *Prepared) Partitions() int { return pp.part.K }

// Bytes returns the handle's resident memory footprint: the shuffled edge
// buffer, the out-degree vector, the transposed buffer when it has been
// built, and the tile indexes. The serving layer's dataset registry charges
// this against its memory cap when deciding what to evict.
func (pp *Prepared) Bytes() int64 {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	edgeBytes := int64(pod.Size[core.Edge]())
	n := int64(pp.fwd.Cap())*edgeBytes + int64(cap(pp.deg))*4
	if pp.bwd != nil {
		n += int64(pp.bwd.Cap()) * edgeBytes
	}
	for _, tiles := range []*core.TileIndex{pp.tilesFwd, pp.tilesBwd} {
		if tiles != nil {
			n += tiles.Bytes()
		}
	}
	return n
}

// Close implements core.Prepared: an in-memory handle holds nothing but Go
// memory, so it does nothing.
func (pp *Prepared) Close() {}

// edges returns the edge buffer (and, when wanted, tile index) for a
// direction, building the transpose and index lazily, at most once.
func (pp *Prepared) edges(dir core.Direction, needTiles bool) (*streambuf.Buffer[core.Edge], *core.TileIndex) {
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
		*tiles = tileIndex(buf, pp.part.K, pp.cfg.TileEdges)
	}
	return buf, *tiles
}

// RunMany executes every job of set against g with the in-memory engine,
// sharing one edge stream per iteration. See Prepared.RunMany. Every job is
// checked before the ingest. The pass's PreprocessTime, TotalTime and "run"
// span cover the ingest as well.
func RunMany(ctx context.Context, g core.EdgeSource, set core.ProgramSet, cfg Config) ([]core.JobResult, core.Stats, error) {
	start := time.Now()
	if err := set.Check(); err != nil {
		return nil, core.Stats{}, fmt.Errorf("memengine: %w", err)
	}
	foot := 0
	for _, j := range set {
		foot = max(foot, core.Footprint(j.VertexBytes(), j.UpdateBytes()))
	}
	pp, err := prepare(g, cfg, partitions(g.NumVertices(), cfg, foot))
	if err != nil {
		return nil, core.Stats{}, err
	}
	return pp.runMany(ctx, set, start)
}

// RunJob executes a single type-erased job — the registry-driven form of
// Run, used by cmd/xstream and single-job serving paths.
func RunJob(ctx context.Context, g core.EdgeSource, job *core.Job, cfg Config) (*core.JobResult, error) {
	return core.Solo(RunMany(ctx, g, core.ProgramSet{job}, cfg))
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

// runMany sets set's runs up and drives them through core.RunPass, the
// iteration loop of both engines, with a memPass streaming the buffers.
// start is when the pass's work began (see core.Pass).
func (pp *Prepared) runMany(ctx context.Context, set core.ProgramSet, start time.Time) ([]core.JobResult, core.Stats, error) {
	cfg := pp.cfg
	pass := core.Stats{
		Algorithm: set.Label(), Engine: "memory", Partitioner: pp.partName,
		Partitions: pp.part.K, Threads: cfg.Threads, CoJobs: len(set),
	}
	runs, err := set.NewRuns(core.JobSetup{
		Assignment: pp.asg, NumVertices: pp.nv, NumEdges: pp.ne,
		Threads: cfg.Threads, Plan: pp.plan, UpdateCap: int(pp.ne),
		PrivateBufBytes: privateBufBytes,
		NoCombine:       cfg.NoCombine, Selective: cfg.Selective,
		Degrees: func(p int, _ *[]uint32, _ *core.SpillIO) ([]uint32, error) {
			lo, hi := pp.part.Range(p, pp.nv)
			return pp.deg[lo:hi], nil
		},
	})
	if err != nil {
		return nil, pass, fmt.Errorf("memengine: %w", err)
	}
	defer core.CloseRuns(runs)
	results, err := core.RunPass(ctx, core.Pass{
		Engine: newMemPass(pp, len(runs)), Runs: runs, Start: start,
		MaxIterations: cfg.MaxIterations, Threads: cfg.Threads, Tracer: cfg.Tracer,
	}, &pass)
	return results, pass, err
}

// memPass is a pass's core.PassEngine, made once per pass and reused by
// every iteration: per edge list orientation the buffer it resolved, and for
// each engine worker its partition plan, the records it streamed and the
// needing runs' sinks. Worker w owns scatters[w*n:(w+1)*n], n being the
// number of runs in the pass.
type memPass struct {
	pp       *Prepared
	n        int
	streams  [2]edgeStream // indexed by core.Direction
	plans    []core.PartitionPlan
	streamed []int64
	scatters []core.JobScatter
}

// edgeStream is one orientation's edge buffer, with its tile index when a
// subscriber has a frontier.
type edgeStream struct {
	edges *streambuf.Buffer[core.Edge]
	tiles *core.TileIndex
}

func newMemPass(pp *Prepared, runs int) *memPass {
	return &memPass{
		pp: pp, n: runs,
		plans:    make([]core.PartitionPlan, pp.cfg.Threads),
		streamed: make([]int64, pp.cfg.Threads),
		scatters: make([]core.JobScatter, runs*pp.cfg.Threads),
	}
}

// Resolve implements core.PassEngine: the transpose and the tile index are
// built the first time a run asks for them.
func (m *memPass) Resolve(dir core.Direction, subs []core.JobRun, _ *core.Stats) error {
	needTiles := false
	for _, r := range subs {
		needTiles = needTiles || !r.Dense()
	}
	st := &m.streams[dir]
	st.edges, st.tiles = m.pp.edges(dir, needTiles)
	return nil
}

// Scatter implements core.PassEngine: it streams every partition's edge
// chunk of dir once, as the worker's core.PartitionPlan plans it, feeding
// each needing run the runs of tiles its own frontier meets
// (PartitionPlan.Delivered) through that run's sink for the worker —
// thread-private buffers, §4.1: plain append buffers normally, combining
// buffers when the program has a Combiner whose destinations fit
// (core.DenseCombines); the run owns them, one per worker, for its life.
// Partitions are claimed by worker threads from a shared cursor (work
// stealing, §4.1). A cancelled context or a failed sink stops the walk
// (forEachPartition).
func (m *memPass) Scatter(ctx context.Context, dir core.Direction, subs []core.JobRun, pass *core.Stats) error {
	pp := m.pp
	edges, tiles := m.streams[dir].edges, m.streams[dir].tiles
	tr := pp.cfg.Tracer
	err := forEachPartition(pp.part.K, pp.cfg.Threads, pp.cfg.NoWorkStealing, func(w, p int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pStart time.Time
		if tr != nil {
			pStart = time.Now()
		}
		chunk := edges.Bucket(p)
		plan := &m.plans[w]
		plan.Plan(subs, p, int64(len(chunk)), pp.cfg.TileEdges, tiles)
		if len(plan.Runs) == 0 {
			return nil
		}
		scatters := m.scatters[w*m.n : w*m.n+len(plan.Needing)]
		for i, r := range plan.Needing {
			scatters[i] = r.NewScatter(w, p)
		}
		// err is the partition's first sink failure; once set, no sink is
		// fed another edge.
		var err error
		for i, sc := range scatters {
			for _, run := range plan.Delivered(i) {
				if err = sc.Edges(chunk[run.Lo:run.Hi]); err != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		for _, sc := range scatters {
			if ferr := sc.Flush(); err == nil {
				err = ferr
			}
		}
		if err != nil {
			return err
		}
		m.streamed[w] += plan.Streamed
		if tr != nil {
			tr.Span(1+w, "partition", pStart, time.Since(pStart),
				map[string]int64{"p": int64(p), "edges": plan.Streamed, "jobs": int64(len(plan.Needing))})
		}
		return nil
	})
	var n int64
	for w := range m.plans {
		m.plans[w].Book(pass)
		n += m.streamed[w]
		m.streamed[w] = 0
	}
	if err != nil {
		return err
	}
	pass.EdgesStreamed += n
	pass.BytesStreamed += n * int64(pod.Size[core.Edge]())
	pass.SequentialRefs += n
	return nil
}

// forEachPartition runs fn over all partitions, passing the worker index
// (0-based; tracers key per-worker span tracks off it) alongside the
// partition: by default workers claim the next unprocessed partition from
// a shared cursor (work stealing, §4.1); noSteal switches to the static
// round-robin assignment of the NoWorkStealing ablation. Once fn has failed
// no worker starts another partition, and a failure is returned.
func forEachPartition(k, workers int, noSteal bool, fn func(w, p int) error) error {
	if !noSteal {
		return core.ForEachClaimedUntil(k, workers, fn)
	}
	workers = min(workers, k)
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < k && !failed.Load(); p += workers {
				if errs[w] = fn(w, p); errs[w] != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// countDegrees counts every vertex's out-degree from the shuffled edge
// buffer, one bucket per task: bucket p holds only partition p's sources, so
// the tasks write disjoint ranges of the vector and need no atomics. The
// vector has room for every ID the split can place, so no source can index
// past it; the first nv entries are returned.
func countDegrees(fwd *streambuf.Buffer[core.Edge], part core.Split, nv int64, threads int) []uint32 {
	deg := make([]uint32, int64(part.K)*part.PerPartition())
	core.ForEachClaimed(part.K, threads, func(_, p int) {
		for _, ed := range fwd.Bucket(p) {
			deg[ed.Src]++
		}
	})
	return deg[:nv]
}

// transpose builds the transposed edge buffer, bucketed by the new source's
// partition: one placement of fwd's records by destination partition into
// the only edge buffer allocated, then every edge's ends swapped in place.
func transpose(fwd *streambuf.Buffer[core.Edge], part core.Split, threads int) *streambuf.Buffer[core.Edge] {
	bwd := streambuf.New[core.Edge](fwd.Cap())
	bwd.Place(fwd.Records(), part.K, threads, func(ed core.Edge) uint32 { return part.Of(ed.Dst) })
	edges := bwd.Records()
	const block = 1 << 16
	core.ForEachClaimed((len(edges)+block-1)/block, threads, func(_, b int) {
		for i := b * block; i < min(len(edges), (b+1)*block); i++ {
			edges[i].Src, edges[i].Dst = edges[i].Dst, edges[i].Src
		}
	})
	return bwd
}
