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
// engine worker, the update transport, the gather and the frontier.
//
// Parallelism follows the paper: partitions are the unit of work for
// scatter and gather, claimed by threads from a shared cursor (work
// stealing, §4.1); threads append updates through small private buffers
// flushed into the shared output buffer by atomic reservation, each under
// its partition, and the shuffle places them lock-free in partition order
// (§4.2). A job gathers on the threads it has to itself: all of them alone,
// Threads / jobs when co-scheduled.
//
// Pre-processing also counts every vertex's out-degree, once, from the
// shuffled buffer (one bucket per task: a bucket holds only its partition's
// sources, so the count needs no atomics), and keeps the vector with the
// Prepared for core.DegreeInit programs such as PageRank, which therefore
// stream forward only. The transposed edge list a Backward iteration
// streams — SCC's, the only backward program — is built the first time a
// job asks for it by streaming the forward buffer (§2), never by sorting
// it: one placement by destination partition into the one buffer
// allocated.
//
// When the program implements core.Combiner the private buffers become
// combining buffers, so the stream the gather phase random-accesses
// vertices for is pre-aggregated at scatter time (see Config.NoCombine and
// the figcombine experiment).
//
// When the program additionally implements core.FrontierProgram and
// Config.Selective is set, the engine keeps an active-vertex frontier
// across iterations and skips the edge chunks of partitions with no active
// source — and, via a per-tile source index (core.TileIndex), skips
// fixed-size tiles, index ranges of a chunk, inside partially active
// partitions. core.PartitionPlan, the plan of both engines, decides and
// books every skip: a chunk or tile is skipped only when no co-scheduled
// job needs it, and a job is not handed a tile its own frontier misses.
// This closes the paper's §5.3 loss case (frontier algorithms re-streaming
// edges whose sources cannot scatter) while preserving the
// streaming-partition architecture; see the figfrontier experiment.
//
// Config is core.Config, the one configuration of both engines: this engine
// reads the fields both share plus Fanout and NoWorkStealing, and ignores the
// out-of-core ones. Its own defaults are 4096-record tiles and the paper's
// 8 KiB private append buffers, which are not a setting. Prepared satisfies
// core.Prepared, the handle interface of both engines; its Close does
// nothing.
package memengine

import (
	"context"

	"repro/internal/core"
	"repro/internal/streambuf"
)

// Config tunes the engine: core.Config, of which the package doc names the
// fields this engine reads.
type Config = core.Config

// withDefaults fills the in-memory defaults: 4096-record tiles (see
// Config.TileEdges).
func withDefaults(c Config) Config { return c.Defaults(4096) }

// privateBufBytes is the size of each thread's private append buffer: the
// out-of-core engine's too, core.DefaultPrivateBufBytes, unless a test
// shrinks it.
var privateBufBytes = core.DefaultPrivateBufBytes

// Result carries the final vertex states and execution statistics.
type Result[V any] = core.Result[V]

// Run executes prog on g with the in-memory engine and returns the final
// vertex states. It is RunJob with the types kept: the program runs as a
// ProgramSet of one through the engine's only loop (Prepared.RunMany), so
// a typed run and a type-erased or co-scheduled one cannot drift apart.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	return core.Typed[V](RunJob(context.Background(), g, core.NewJob(prog), cfg))
}

// tileIndex indexes the source span of every partition's tiles: bucket p
// of buf cut into tiles of tileRecs records, the last one shorter, the
// tiles core.PartitionPlan plans. The buffer is placed once at setup and
// never changes, so the tiles stay the ones the spans describe.
func tileIndex(buf *streambuf.Buffer[core.Edge], k, tileRecs int) *core.TileIndex {
	spans := make([][]core.SrcSpan, k)
	for p := range spans {
		chunk := buf.Bucket(p)
		for lo := 0; lo < len(chunk); lo += tileRecs {
			spans[p] = append(spans[p], core.SpanOf(chunk[lo:min(lo+tileRecs, len(chunk))]))
		}
	}
	return core.NewTileIndex(spans)
}
