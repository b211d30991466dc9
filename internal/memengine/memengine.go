// Package memengine is X-Stream's in-memory streaming engine (paper §4).
//
// The engine processes graphs whose vertices, edges and updates fit in
// memory. Fast Storage is the CPU cache, Slow Storage is RAM: the number of
// streaming partitions is chosen so the vertex *footprint* of one partition
// fits in a core's cache share, edges and updates are streamed sequentially
// through stream buffers, and updates are routed to partitions with the
// parallel multi-stage shuffler of internal/streambuf.
//
// Parallelism follows the paper: partitions are the unit of work for
// scatter and gather, claimed by threads from a shared cursor (work
// stealing, §4.1); threads append updates through small private buffers
// flushed into the shared output buffer by atomic reservation; the shuffle
// runs lock-free on per-thread slices (§4.2).
//
// When the program implements core.Combiner the private buffers become
// combining buffers and the shuffled result is folded per partition, so
// the stream the gather phase random-accesses vertices for is
// pre-aggregated (see Config.NoCombine and the figcombine experiment).
//
// When the program additionally implements core.FrontierProgram and
// Config.Selective is set, the engine keeps an active-vertex frontier
// across iterations and skips the edge chunks of partitions with no active
// source — and, via a per-tile source index built once at setup, skips
// fixed-size tiles inside partially active partitions. This closes the
// paper's §5.3 loss case (frontier algorithms re-streaming edges whose
// sources cannot scatter) while preserving the streaming-partition
// architecture; see the figfrontier experiment.
package memengine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/pod"
	"repro/internal/streambuf"
)

// Config tunes the in-memory engine. The zero value auto-sizes everything
// the way the paper describes: partitions from the cache size and vertex
// footprint (§4), shuffler fanout from the cache line count (§4.2).
type Config struct {
	// Threads is the number of worker threads. 0 means GOMAXPROCS.
	Threads int
	// CacheBytes is the per-core cache share used to size partitions.
	// 0 means 2 MiB (the testbed's L2 share, §5.1).
	CacheBytes int
	// CacheLineBytes sizes the shuffler fanout bound. 0 means 64.
	CacheLineBytes int
	// Partitions forces the partition count (must be a power of two).
	// 0 means automatic.
	Partitions int
	// Fanout forces the shuffler fanout (power of two >= 2). 0 means
	// automatic.
	Fanout int
	// MaxIterations bounds the scatter-gather loop as a safety net.
	// 0 means 1<<20.
	MaxIterations int
	// NoWorkStealing statically assigns partitions to threads instead of
	// letting idle threads claim the next unprocessed partition. Only
	// used by the work-stealing ablation benchmark.
	NoWorkStealing bool
	// PrivateBufBytes is the size of each thread's private append buffer
	// (§4.1). 0 means 8 KiB, the paper's value.
	PrivateBufBytes int
	// Partitioner chooses how vertices map to streaming partitions. nil
	// means core.RangePartitioner (the paper's fixed contiguous split).
	// Locality-aware partitioners relabel vertices during pre-processing;
	// the engine still returns vertex states in original input order.
	Partitioner core.Partitioner
	// NoCombine disables update combining even when the program
	// implements core.Combiner; used by ablation benchmarks and the
	// combiner-equivalence tests.
	NoCombine bool
	// Selective enables frontier-aware selective scatter for programs
	// implementing core.FrontierProgram: the engine maintains an active-
	// vertex bitset across iterations (a vertex is active iff it received
	// an update last iteration) and skips the edge chunk of any partition
	// with no active source — and, inside partially active partitions,
	// any fixed-size edge tile whose source summary holds no active
	// vertex. By the FrontierProgram contract every skipped edge would
	// have produced no update, so results are identical with Selective on
	// or off; Stats.EdgesSkipped / PartitionsSkipped / TilesSkipped
	// measure the elided work. Ignored for programs without the contract
	// (and for PhasedPrograms, whose EndIteration hook can activate
	// vertices the update stream never saw).
	Selective bool
	// TileEdges is the tile granularity (edge records) of selective
	// skipping inside partially active partitions. 0 means 4096.
	TileEdges int
	// Context cancels the run: it is checked between iterations and
	// between partition chunks inside the scatter phase, so server jobs
	// honor cancelation and deadlines promptly. nil means
	// context.Background(), keeping batch callers unchanged.
	Context context.Context
	// Tracer receives run → iteration → phase → partition spans. nil
	// (the default) disables tracing; a Tracer never changes any work
	// metric, only observes timing (the figobs experiment gates this).
	Tracer core.Tracer
	// Exchange, when non-nil, replaces the builtin in-memory shuffle
	// transport with a frame-level update exchange (see core.Exchange):
	// the factory is called once with the partition count and the run's
	// update stream moves through core.NewExchangeTransport over it. Used
	// by the loopback worker transport in internal/transport and, later,
	// by a network exchange. nil (the default) keeps the builtin shuffle.
	Exchange func(k int) core.Exchange
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 2 << 20
	}
	if c.CacheLineBytes <= 0 {
		c.CacheLineBytes = 64
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1 << 20
	}
	if c.PrivateBufBytes <= 0 {
		c.PrivateBufBytes = 8 << 10
	}
	if c.TileEdges <= 0 {
		c.TileEdges = 4096
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// Result carries the final vertex states and execution statistics.
type Result[V any] struct {
	Vertices []V
	Stats    core.Stats
}

// Run executes prog on g with the in-memory engine and returns the final
// vertex states.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	cfg = cfg.withDefaults()
	if err := pod.Check[V](); err != nil {
		return nil, fmt.Errorf("memengine: vertex state: %w", err)
	}
	if err := pod.Check[M](); err != nil {
		return nil, fmt.Errorf("memengine: update value: %w", err)
	}

	start := time.Now()
	nv := g.NumVertices()
	ne := g.NumEdges()

	// Partition count from the §4 footprint rule; fanout from §4.2.
	k := cfg.Partitions
	if k == 0 {
		foot := core.Footprint(pod.Size[V](), pod.Size[core.Update[M]]())
		k = core.MemPartitions(nv, foot, cfg.CacheBytes)
	}
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("memengine: partition count %d is not a power of two", k)
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = core.MemFanout(cfg.CacheBytes, cfg.CacheLineBytes)
	}
	if fanout > k && k > 1 {
		fanout = k
	}
	plan, err := streambuf.NewPlan(k, fanout)
	if err != nil {
		return nil, fmt.Errorf("memengine: %w", err)
	}

	// Partitioning policy: plan the vertex->partition assignment, rewrite
	// the edge stream through the relabeling if there is one, and let the
	// program translate any ID-valued parameters.
	pr := cfg.Partitioner
	if pr == nil {
		pr = core.RangePartitioner{}
	}
	t0 := time.Now()
	asg, err := pr.Assign(g, k)
	if err != nil {
		return nil, fmt.Errorf("memengine: partitioner %s: %w", pr.Name(), err)
	}
	if err := asg.Validate(nv); err != nil {
		return nil, fmt.Errorf("memengine: partitioner %s: %w", pr.Name(), err)
	}
	if vm, ok := any(prog).(core.VertexMapper); ok {
		vm.MapVertices(nv, asg.NewID, asg.OldID)
	}
	if !asg.Identity() {
		g = graphio.Relabeled(g, asg.Relabel)
	}

	e := &engine[V, M]{
		cfg:  cfg,
		ctx:  cfg.Context,
		prog: prog,
		part: asg.Split,
		asg:  asg,
		plan: plan,
		nv:   nv,
		ne:   ne,
	}
	if cb, ok := any(prog).(core.Combiner[M]); ok && !cfg.NoCombine {
		e.combine = cb.Combine
		e.folder = core.NewUpdateFolder(asg.Split, cfg.Threads, cb.Combine)
	}
	// Vertex replication needs the Combiner to merge mirror accumulators;
	// without one the assignment's mirror set is ignored (the fallback).
	if e.combine != nil && asg.Mirrors.Len() > 0 {
		e.rep = asg.Mirrors
		e.stats.MirroredVertices = asg.Mirrors.Len()
		e.mbPool.New = func() any { return core.NewMirrorBuffer(e.rep, e.combine) }
	}
	// Selective scheduling requires the FrontierProgram contract; phased
	// programs are excluded because EndIteration may activate vertices
	// through the VertexView without any update the frontier could see.
	if cfg.Selective {
		if fp, ok := any(prog).(core.FrontierProgram[V]); ok {
			if _, phased := any(prog).(core.PhasedProgram[V, M]); !phased {
				e.fp = fp
				e.cur = core.NewFrontier(nv)
				e.nxt = core.NewFrontier(nv)
			}
		}
	}
	e.stats.Algorithm = prog.Name()
	e.stats.Engine = "memory"
	e.stats.Partitioner = pr.Name()
	e.stats.Partitions = k
	e.stats.Threads = cfg.Threads

	if err := e.setup(g); err != nil {
		return nil, err
	}
	defer e.tp.Close()
	e.stats.PreprocessTime = time.Since(t0)
	if tr := cfg.Tracer; tr != nil {
		tr.Span(0, "preprocess", t0, e.stats.PreprocessTime, nil)
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	tc := e.tp.Counters()
	e.stats.TransportBatches = tc.Batches
	e.stats.TransportBytes = tc.Bytes
	e.stats.TransportCross = tc.Cross

	// Report results in original input order: remap ID-valued state, then
	// undo the relabeling permutation.
	if !asg.Identity() {
		if rm, ok := any(prog).(core.StateRemapper[V]); ok {
			for i := range e.verts {
				rm.RemapState(&e.verts[i], asg.OldID)
			}
		}
		e.verts = core.RestoreOrder(e.verts, asg.Relabel)
	}
	e.stats.TotalTime = time.Since(start)
	if tr := cfg.Tracer; tr != nil {
		tr.Span(0, "run", start, e.stats.TotalTime, map[string]int64{
			"iterations": int64(e.stats.Iterations),
			"partitions": int64(e.stats.Partitions),
		})
	}
	return &Result[V]{Vertices: e.verts, Stats: e.stats}, nil
}

type engine[V, M any] struct {
	cfg  Config
	ctx  context.Context
	prog core.Program[V, M]
	part core.Split
	asg  *core.Assignment
	plan streambuf.Plan
	nv   int64
	ne   int64
	// combine is the program's update semigroup, nil when the program has
	// none (or Config.NoCombine disabled it); folder is the reusable
	// post-shuffle fold over it (nil when partitions are too wide); rep is
	// the assignment's mirror set, nil unless replication is active (a
	// planned set with no Combiner falls back to nil).
	combine func(a, b M) M
	folder  *streambuf.Folder[core.Update[M]]
	rep     *core.Replication
	// mbPool recycles mirror accumulators across partition tasks and
	// iterations: a flushed buffer is clean, and with the default hub
	// cap scaling as n/64 a fresh allocation per task would churn.
	mbPool sync.Pool
	// Selective scheduling state (nil fp = dense streaming): cur is the
	// frontier scattered this iteration, nxt collects gather receivers for
	// the next, active caches cur's per-partition counts for one scatter.
	fp       core.FrontierProgram[V]
	cur, nxt *core.Frontier
	active   []int64

	verts []V
	// Edge stream buffers, bucketed by partition of the source vertex.
	// edgesBwd is built lazily the first time a DirectedProgram asks for
	// a Backward iteration (§2: transposes are a streaming pass).
	// tilesFwd/tilesBwd are the matching per-partition tile source
	// summaries (min/max source ID per BucketTiles tile), indexed only
	// when selective scheduling is on.
	edgesFwd *streambuf.Buffer[core.Edge]
	edgesBwd *streambuf.Buffer[core.Edge]
	tilesFwd [][]core.SrcSpan
	tilesBwd [][]core.SrcSpan
	// tp is the update transport between scatter and gather: the builtin
	// counting shuffle by default (the engine's three stream buffers, §4),
	// or an exchange adapter when Config.Exchange is set.
	tp core.UpdateTransport[M]
	// cbs and privs are the scatter workers' private buffers (combining
	// or plain append, by whether the program has a Combiner), made on a
	// worker's first partition task and reused for the rest of the run.
	cbs   []*core.CombineBuffer[M]
	privs [][]core.Update[M]

	stats core.Stats
}

// setup initializes vertex state and shuffles the unordered edge list into
// per-partition chunks (this is the engine's only pre-processing; no sort).
func (e *engine[V, M]) setup(g core.EdgeSource) error {
	e.verts = make([]V, e.nv)
	e.parallelVertices(func(id core.VertexID, v *V) {
		e.prog.Init(id, v)
		if e.fp != nil && e.fp.InitiallyActive(id, v) {
			e.cur.Mark(id)
		}
	})

	buf, err := e.loadEdges(g)
	if err != nil {
		return err
	}
	e.edgesFwd = buf
	if e.fp != nil {
		e.tilesFwd = buildTileIndex(buf, e.part.K, e.cfg.TileEdges)
	}

	e.cbs = make([]*core.CombineBuffer[M], e.cfg.Threads)
	e.privs = make([][]core.Update[M], e.cfg.Threads)
	updCap := int(e.ne)
	key := func(u core.Update[M]) uint32 { return e.part.Of(u.Dst) }
	if e.cfg.Exchange != nil {
		e.tp = core.NewExchangeTransport(e.cfg.Exchange(e.part.K), e.part.K, updCap, e.plan, e.cfg.Threads, key, e.folder)
	} else {
		e.tp = core.NewShuffleTransport(updCap, e.plan, e.cfg.Threads, key, e.folder)
	}
	return nil
}

// buildTileIndex walks every partition's edge chunk in BucketTiles order
// and records each tile's source span. The buffer is shuffled once at
// setup and never changes, so a scatter walking BucketTiles with the same
// tile size sees exactly the indexed tiles.
func buildTileIndex(buf *streambuf.Buffer[core.Edge], k, tileRecs int) [][]core.SrcSpan {
	idx := make([][]core.SrcSpan, k)
	for p := 0; p < k; p++ {
		buf.BucketTiles(p, tileRecs, func(tile []core.Edge) {
			span := core.NewSrcSpan(tile[0].Src)
			for _, ed := range tile[1:] {
				span.Add(ed.Src)
			}
			idx[p] = append(idx[p], span)
		})
	}
	return idx
}

// loadEdges streams src into a buffer and shuffles it by source partition.
func (e *engine[V, M]) loadEdges(src core.EdgeSource) (*streambuf.Buffer[core.Edge], error) {
	return loadShuffled(src, e.plan, e.part, e.cfg.Threads)
}

// loop runs the synchronous scatter-shuffle-gather iterations.
func (e *engine[V, M]) loop() error {
	directed, isDirected := any(e.prog).(core.DirectedProgram)
	phased, isPhased := any(e.prog).(core.PhasedProgram[V, M])
	usize := pod.Size[core.Update[M]]()
	esize := pod.Size[core.Edge]()
	tr := e.cfg.Tracer

	for iter := 0; iter < e.cfg.MaxIterations; iter++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		iterStart := time.Now()
		iterMark := e.stats.MarkIter()
		if s, ok := any(e.prog).(core.IterationStarter); ok {
			s.StartIteration(iter)
		}

		edges, tiles := e.edgesFwd, e.tilesFwd
		if isDirected && directed.Direction(iter) == core.Backward {
			if e.edgesBwd == nil {
				rev, err := e.reverseEdges()
				if err != nil {
					return err
				}
				e.edgesBwd = rev
				if e.fp != nil {
					e.tilesBwd = buildTileIndex(rev, e.part.K, e.cfg.TileEdges)
				}
			}
			edges, tiles = e.edgesBwd, e.tilesBwd
		}

		// Scatter phase. With a Combiner, thread-private combining buffers
		// absorb same-destination updates before they reach the shared
		// stream, so appended ≤ sent. With selective scheduling, the
		// frontier's per-partition counts decide which chunks and tiles
		// are streamed at all.
		t0 := time.Now()
		if e.fp != nil {
			e.active = e.cur.CountByPartition(e.part)
		}
		sc, err := e.scatter(edges, tiles)
		if err != nil {
			return err
		}
		sent, streamed := sc.sent, sc.streamed
		appended := sent - sc.combined
		scatterDur := time.Since(t0)
		e.stats.ScatterTime += scatterDur
		e.stats.CrossPartitionUpdates += sc.cross
		e.stats.MirrorSyncUpdates += sc.synced
		e.stats.EdgesStreamed += streamed
		e.stats.UpdatesSent += sent
		e.stats.WastedEdges += streamed - sent
		e.stats.EdgesSkipped += sc.skippedEdges
		e.stats.PartitionsSkipped += sc.skippedParts
		e.stats.TilesSkipped += sc.skippedTiles
		e.stats.RandomRefs += streamed // one vertex load per edge
		e.stats.SequentialRefs += streamed
		e.stats.BytesStreamed += streamed * int64(esize)

		// Shuffle phase — now the transport's Seal: updates are routed to
		// their destination partitions and, with a Combiner, the
		// per-partition fold merges surviving same-destination records
		// before gather.
		t1 := time.Now()
		flow, err := e.tp.Seal()
		if err != nil {
			return err
		}
		foldCombined := flow.Combined
		gathered := appended - foldCombined
		shuffleDur := time.Since(t1)
		e.stats.ShuffleTime += shuffleDur
		e.stats.UpdatesCombined += sc.combined + foldCombined
		e.stats.UpdateBytes += gathered * int64(usize)
		e.stats.BytesStreamed += (appended*int64(e.plan.NumStages()+1) + gathered) * int64(usize)
		e.stats.SequentialRefs += appended*int64(e.plan.NumStages()+1) + gathered

		// Gather phase; with selective scheduling it doubles as the census
		// for the next frontier (receivers become active).
		t2 := time.Now()
		if err := e.gather(); err != nil {
			return err
		}
		gatherDur := time.Since(t2)
		e.stats.GatherTime += gatherDur
		e.stats.RandomRefs += gathered
		if err := e.tp.EndIteration(); err != nil {
			return err
		}
		if e.fp != nil {
			e.cur, e.nxt = e.nxt, e.cur
			e.nxt.Clear()
		}

		e.stats.Iterations = iter + 1
		e.stats.PushIter(iter, iterMark, time.Since(iterStart))
		if tr != nil {
			it := int64(iter)
			tr.Span(0, "scatter", t0, scatterDur, map[string]int64{"iter": it, "edges": streamed, "updates": sent})
			tr.Span(0, "shuffle", t1, shuffleDur, map[string]int64{"iter": it, "records": appended})
			tr.Span(0, "gather", t2, gatherDur, map[string]int64{"iter": it, "updates": gathered})
			tr.Span(0, "iteration", iterStart, time.Since(iterStart), map[string]int64{"iter": it})
		}
		if isPhased {
			if phased.EndIteration(iter, sent, core.SliceView[V](e.verts)) {
				return nil
			}
		} else if sent == 0 {
			return nil
		}
	}
	return nil
}

// reverseEdges builds the transposed, re-partitioned edge buffer. A failed
// append means the transpose would silently truncate, so it is fatal.
func (e *engine[V, M]) reverseEdges() (*streambuf.Buffer[core.Edge], error) {
	return reverseShuffled(e.edgesFwd, e.plan, e.part, e.cfg.Threads)
}

// scatterCounts aggregates one scatter phase's accounting.
type scatterCounts struct {
	sent     int64 // updates produced by Scatter (pre-combining)
	streamed int64 // edge records streamed
	cross    int64 // updates addressed outside their source partition
	combined int64 // updates merged away by scatter-side combining
	synced   int64 // master-mirror sync updates flushed (replication)
	// selective-scheduling elisions
	skippedEdges int64 // edges not streamed (inactive partition or tile)
	skippedParts int64 // whole partition chunks skipped
	skippedTiles int64 // tiles skipped inside partially active partitions
}

// scatter streams every partition's edge chunk, appending updates through
// thread-private buffers (§4.1) — plain append buffers normally, combining
// buffers when the program has a Combiner. With selective scheduling,
// partitions with no active source are skipped whole, and inside partially
// active partitions each fixed-size tile is streamed only when its source
// span intersects the frontier.
func (e *engine[V, M]) scatter(edges *streambuf.Buffer[core.Edge], tiles [][]core.SrcSpan) (scatterCounts, error) {
	var sentTotal, streamedTotal, crossTotal, combinedTotal, syncTotal atomic.Int64
	var skippedEdges, skippedParts, skippedTiles atomic.Int64
	var overflow atomic.Bool
	basePriv := e.cfg.PrivateBufBytes / pod.Size[core.Update[M]]()
	if basePriv < 1 {
		basePriv = 1
	}
	tr := e.cfg.Tracer

	e.forEachPartition(func(w, p int) {
		if e.ctx.Err() != nil {
			return // cancelation between partition chunks
		}
		var pStart time.Time
		if tr != nil {
			pStart = time.Now()
		}
		chunkLen := int64(edges.BucketLen(p))
		lo, hi := e.part.Range(p, e.nv)
		if e.fp != nil && e.active[p] == 0 {
			// No active source anywhere in the partition: by the
			// FrontierProgram contract the whole chunk is a no-op. An
			// edgeless partition elides nothing, so it is not counted.
			if chunkLen > 0 {
				skippedEdges.Add(chunkLen)
				skippedParts.Add(1)
			}
			return
		}

		var nSent, nStreamed, nCross int64
		flush := func(recs []core.Update[M]) {
			if !e.tp.Send(p, recs) {
				overflow.Store(true)
			}
		}
		// scan processes one run (or tile) of the chunk; finish drains the
		// task-private buffer once all runs are done.
		var scan func(run []core.Edge)
		var finish func()
		if e.combine != nil {
			// The worker's combining buffer, Reset per partition task:
			// merging is a deterministic function of the partition's edge
			// order, independent of which thread claims it. Its capacity
			// scales with the partition's average out-degree — denser
			// partitions repeat destinations more, so a wider window
			// combines more.
			cb := e.cbs[w]
			if cb == nil {
				cb = core.NewCombineBuffer[M](core.MaxBufGrowth*basePriv, e.combine)
				e.cbs[w] = cb
			}
			cb.Reset(core.DegreeAwareBufRecs(basePriv, chunkLen, hi-lo))
			// With replication, updates addressed to mirrored hubs are
			// merged into the partition-local mirror accumulator instead
			// of entering the update stream; the accumulator flushes one
			// sync update per touched hub when the partition is done.
			var mb *core.MirrorBuffer[M]
			if e.rep != nil {
				mb = e.mbPool.Get().(*core.MirrorBuffer[M])
			}
			scan = func(run []core.Edge) {
				if overflow.Load() {
					return
				}
				for _, ed := range run {
					nStreamed++
					if m, ok := e.prog.Scatter(ed, &e.verts[ed.Src]); ok {
						nSent++
						if mb != nil && mb.Absorb(ed.Dst, m) {
							continue
						}
						if e.part.Of(ed.Dst) != uint32(p) {
							nCross++
						}
						if cb.Add(ed.Dst, m) {
							cb.Drain(flush)
						}
					}
				}
			}
			finish = func() {
				if mb != nil {
					combinedTotal.Add(mb.Merged)
					syncTotal.Add(mb.Flush(func(u core.Update[M]) {
						if e.part.Of(u.Dst) != uint32(p) {
							nCross++
						}
						if cb.Add(u.Dst, u.Val) {
							cb.Drain(flush)
						}
					}))
					e.mbPool.Put(mb)
				}
				cb.Drain(flush)
				combinedTotal.Add(cb.Combined)
			}
		} else {
			if e.privs[w] == nil {
				e.privs[w] = make([]core.Update[M], 0, basePriv)
			}
			priv := e.privs[w][:0]
			scan = func(run []core.Edge) {
				if overflow.Load() {
					return
				}
				for _, ed := range run {
					nStreamed++
					if m, ok := e.prog.Scatter(ed, &e.verts[ed.Src]); ok {
						nSent++
						if e.part.Of(ed.Dst) != uint32(p) {
							nCross++
						}
						priv = append(priv, core.Update[M]{Dst: ed.Dst, Val: m})
						if len(priv) == cap(priv) {
							flush(priv)
							priv = priv[:0]
						}
					}
				}
			}
			finish = func() {
				if len(priv) > 0 {
					flush(priv)
				}
			}
		}

		if e.fp != nil && e.active[p] < hi-lo && tiles != nil {
			// Partially active partition: walk the chunk tile by tile and
			// skip every tile whose source span misses the frontier. The
			// walk mirrors buildTileIndex exactly (same buffer, same tile
			// size), so index i always describes the i-th tile seen.
			spans := tiles[p]
			ti := 0
			edges.BucketTiles(p, e.cfg.TileEdges, func(tile []core.Edge) {
				span := spans[ti]
				ti++
				if !span.Intersects(e.cur) {
					skippedEdges.Add(int64(len(tile)))
					skippedTiles.Add(1)
					return
				}
				scan(tile)
			})
		} else {
			edges.Bucket(p, scan)
		}
		finish()
		sentTotal.Add(nSent)
		streamedTotal.Add(nStreamed)
		crossTotal.Add(nCross)
		if tr != nil {
			tr.Span(1+w, "partition", pStart, time.Since(pStart),
				map[string]int64{"p": int64(p), "edges": nStreamed, "updates": nSent})
		}
	})

	if err := e.ctx.Err(); err != nil {
		return scatterCounts{}, err
	}
	if overflow.Load() {
		return scatterCounts{}, fmt.Errorf("memengine: update buffer overflow (capacity %d)", e.tp.Cap())
	}
	return scatterCounts{
		sent:         sentTotal.Load(),
		streamed:     streamedTotal.Load(),
		cross:        crossTotal.Load(),
		combined:     combinedTotal.Load(),
		synced:       syncTotal.Load(),
		skippedEdges: skippedEdges.Load(),
		skippedParts: skippedParts.Load(),
		skippedTiles: skippedTiles.Load(),
	}, nil
}

// gather drains every partition's sealed update stream into its vertices.
// With selective scheduling every receiver is marked into the next
// frontier — receipt of an update, not a state change, is what
// (conservatively) activates a vertex, so the frontier is identical
// whether or not the update stream was pre-combined.
func (e *engine[V, M]) gather() error {
	var mu sync.Mutex
	var firstErr error
	e.forEachPartition(func(_, p int) {
		err := e.tp.Drain(p, func(run []core.Update[M]) error {
			if e.fp != nil {
				for _, u := range run {
					e.prog.Gather(u.Dst, &e.verts[u.Dst], u.Val)
					e.nxt.Mark(u.Dst)
				}
				return nil
			}
			for _, u := range run {
				e.prog.Gather(u.Dst, &e.verts[u.Dst], u.Val)
			}
			return nil
		})
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// forEachPartition runs fn over all partitions on the configured worker
// count, passing the worker index (0-based; tracers key per-worker span
// tracks off it) alongside the partition. By default threads claim
// partitions from a shared cursor so an unlucky thread stuck with a
// dense partition does not idle the rest (work stealing, §4.1);
// NoWorkStealing switches to a static round-robin assignment for the
// ablation.
func (e *engine[V, M]) forEachPartition(fn func(w, p int)) {
	workers := e.cfg.Threads
	if workers > e.part.K {
		workers = e.part.K
	}
	if workers <= 1 {
		for p := 0; p < e.part.K; p++ {
			fn(0, p)
		}
		return
	}
	var wg sync.WaitGroup
	if e.cfg.NoWorkStealing {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for p := w; p < e.part.K; p += workers {
					fn(w, p)
				}
			}(w)
		}
	} else {
		var cursor atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					p := int(cursor.Add(1)) - 1
					if p >= e.part.K {
						return
					}
					fn(w, p)
				}
			}(w)
		}
	}
	wg.Wait()
}

// parallelVertices applies fn to every vertex using all workers.
func (e *engine[V, M]) parallelVertices(fn func(core.VertexID, *V)) {
	workers := e.cfg.Threads
	n := len(e.verts)
	if workers <= 1 || n < 4096 {
		for i := range e.verts {
			fn(core.VertexID(i), &e.verts[i])
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(core.VertexID(i), &e.verts[i])
			}
		}(lo, hi)
	}
	wg.Wait()
}
