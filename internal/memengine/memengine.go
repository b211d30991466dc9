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
// flushed into the shared output buffer by atomic reservation; the shuffle
// runs lock-free on per-thread slices (§4.2). A job gathers on the threads
// it has to itself: all of them alone, Threads / jobs when co-scheduled.
//
// The transposed edge list a Backward iteration streams is built the first
// time a job asks for it by streaming the forward buffer (§2), never by
// sorting it: one pass counts each thread's slice of it by destination
// partition, and one placement pass writes every edge, transposed, straight
// into its final place in the one buffer allocated.
//
// When the program implements core.Combiner the private buffers become
// combining buffers, so the stream the gather phase random-accesses
// vertices for is pre-aggregated at scatter time (see Config.NoCombine and
// the figcombine experiment).
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
	"unsafe"

	"repro/internal/core"
	"repro/internal/streambuf"
)

// Config tunes the engine: core.Config, of which the package doc names the
// fields this engine reads.
type Config = core.Config

// withDefaults fills the in-memory defaults: 4096-record tiles (see
// Config.TileEdges).
func withDefaults(c Config) Config { return c.Defaults(4096) }

// privateBufBytes is the size of each thread's private append buffer
// (§4.1): 8 KiB, the paper's value.
var privateBufBytes = 8 << 10

// Result carries the final vertex states and execution statistics.
type Result[V any] = core.Result[V]

// Run executes prog on g with the in-memory engine and returns the final
// vertex states. It is RunJob with the types kept: the program runs as a
// ProgramSet of one through the engine's only loop (Prepared.RunMany), so
// a typed run and a type-erased or co-scheduled one cannot drift apart.
func Run[V, M any](g core.EdgeSource, prog core.Program[V, M], cfg Config) (*Result[V], error) {
	return core.Typed[V](RunJob(context.Background(), g, core.NewJob(prog), cfg))
}

// edgeTiles is one orientation's tile index: every partition's tiles in
// BucketTiles order, aliasing the edge buffer, and the word→tile index over
// their source spans. The buffer is shuffled once at setup and never
// changes, so the tiles stay exactly what a BucketTiles walk with the same
// tile size would see.
type edgeTiles struct {
	tiles [][][]core.Edge // tiles[p][i] is partition p's tile i
	index *core.TileIndex
}

// buildTileIndex walks every partition's edge chunk in BucketTiles order
// and indexes each tile's source span.
func buildTileIndex(buf *streambuf.Buffer[core.Edge], k, tileRecs int) *edgeTiles {
	et := &edgeTiles{tiles: make([][][]core.Edge, k)}
	spans := make([][]core.SrcSpan, k)
	for p := 0; p < k; p++ {
		buf.BucketTiles(p, tileRecs, func(tile []core.Edge) {
			span := core.NewSrcSpan(tile[0].Src)
			for _, ed := range tile[1:] {
				span.Add(ed.Src)
			}
			et.tiles[p] = append(et.tiles[p], tile)
			spans[p] = append(spans[p], span)
		})
	}
	et.index = core.NewTileIndex(spans)
	return et
}

// bytes returns the index's resident size: the tile headers and the
// word→tile index, spans included.
func (et *edgeTiles) bytes() int64 {
	n := et.index.Bytes()
	for _, ts := range et.tiles {
		n += int64(len(ts)) * int64(unsafe.Sizeof([]core.Edge(nil)))
	}
	return n
}
