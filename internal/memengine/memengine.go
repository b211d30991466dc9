// Package memengine is X-Stream's in-memory streaming engine (paper §4).
//
// The engine processes graphs whose vertices, edges and updates fit in
// memory. Fast Storage is the CPU cache, Slow Storage is RAM: the number of
// streaming partitions is chosen so the vertex *footprint* of one partition
// fits in a core's cache share, edges and updates are streamed sequentially
// through stream buffers, and updates are routed to partitions with the
// parallel multi-stage shuffler of internal/streambuf.
//
// The engine has one iteration loop, Prepared.RunMany in runmany.go: it
// drives a core.ProgramSet — any number of co-scheduled, type-erased jobs
// — from one edge stream per iteration. Run, RunJob and the package-level
// RunMany prepare the graph and call it; a solo Run is a set of one. The
// loop owns what jobs share (the shuffled edge buffers, the partition
// tasks, the trace spans); each job's core.JobRun owns everything
// update-side: vertex state, one scatter sink with a private buffer per
// engine worker, the update transport, the fold, the gather and the
// frontier.
//
// Parallelism follows the paper: partitions are the unit of work for
// scatter and gather, claimed by threads from a shared cursor (work
// stealing, §4.1); threads append updates through small private buffers
// flushed into the shared output buffer by atomic reservation; the shuffle
// runs lock-free on per-thread slices (§4.2). A job gathers on the threads
// it has to itself: all of them alone, Threads / jobs when co-scheduled.
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
// fixed-size tiles inside partially active partitions (a chunk or tile is
// skipped only when no co-scheduled job needs it). This closes the
// paper's §5.3 loss case (frontier algorithms re-streaming edges whose
// sources cannot scatter) while preserving the streaming-partition
// architecture; see the figfrontier experiment.
package memengine

import (
	"context"
	"runtime"

	"repro/internal/core"
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
// vertex states. It is RunJob with the types kept: the program runs as a
// ProgramSet of one through the engine's only loop (Prepared.RunMany), so
// a typed run and a type-erased or co-scheduled one cannot drift apart.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	res, err := RunJob(cfg.Context, g, core.NewJob(prog), cfg)
	if err != nil {
		return nil, err
	}
	return &Result[V]{Vertices: res.Vertices.([]V), Stats: res.Stats}, nil
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
