package core

// pass.go is the one iteration loop of both engines (§3, §4): per iteration
// every live run scatters from one shared edge stream per direction, then
// shuffles and gathers its own updates. An engine supplies only how a
// partition's edges reach the scatter (PassEngine); the live set, the phase
// split, the spans, the per-iteration profile and finalization are here, and
// so is the plan of which runs a partition is streamed to (PartitionPlan).

import (
	"context"
	"slices"
	"time"
)

// PassEngine is what an engine supplies to RunPass: how direction dir's
// edges reach the scatter of the runs subs that stream it this iteration.
// One is made per pass and holds the scratch its Scatter reuses.
type PassEngine interface {
	// Resolve readies dir's edge stream for subs — the in-memory lazy
	// transpose, the out-of-core transposed files — building it on first
	// use. Its time is the iteration's, not the scatter's; the I/O it moves
	// goes on pass.
	Resolve(dir Direction, subs []JobRun, pass *Stats) error
	// Scatter streams dir's edges once, feeding each partition's to the
	// runs of subs that need it, and accounts the stream on pass.
	Scatter(ctx context.Context, dir Direction, subs []JobRun, pass *Stats) error
}

// IterationHook is a PassEngine that acts after every iteration, once its
// spans are emitted and before its profile is pushed; continues says some
// run is still live. Its error fails the pass.
type IterationHook interface {
	AfterIteration(iter int, continues bool, pass *Stats) error
}

// Pass is one pass for RunPass to drive: the engine, the runs it set up and
// the loop's bounds.
type Pass struct {
	Engine PassEngine
	Runs   []JobRun
	// Start is when the pass's work began — before the ingest for a pass
	// that prepared its own dataset, on entry for a pass over a cached one —
	// so PreprocessTime (Start to RunPass) and TotalTime mean the same for
	// both.
	Start time.Time
	// FirstIter is the first iteration executed; a resumed pass restored
	// the ones before it.
	FirstIter     int
	MaxIterations int
	Threads       int
	Tracer        Tracer
}

// RunPass drives p's runs through their iterations until every run is done
// or MaxIterations is reached, accounting the pass on pass, and returns
// each run's result (see FinishPass). ctx cancels between iterations, and
// the engine's Scatter between partitions; nil means Background. The caller
// closes the runs.
func RunPass(ctx context.Context, p Pass, pass *Stats) ([]JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := p.Tracer
	pass.PreprocessTime = time.Since(p.Start)
	if tr != nil {
		tr.Span(0, "preprocess", p.Start, pass.PreprocessTime, nil)
	}
	hook, _ := p.Engine.(IterationHook)
	n := len(p.Runs)
	live := make([]JobRun, 0, n)
	subs := [2][]JobRun{make([]JobRun, 0, n), make([]JobRun, 0, n)} // indexed by Direction
	for iter := p.FirstIter; iter < p.MaxIterations; iter++ {
		live = live[:0]
		for _, r := range p.Runs {
			if !r.Done() {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterStart, iterMark := time.Now(), pass.MarkIter()
		for _, r := range live {
			r.StartIteration(iter)
			if err := r.BeginScatter(); err != nil {
				return nil, err
			}
		}

		// One shared scatter per direction a live run asked for: runs that
		// agree on orientation (the common same-algorithm batch) share the
		// stream; disagreeing runs cost one extra stream, never one per run.
		// The streams are resolved first — a transpose is a streaming pass
		// of its own (§2), built the first time a run asks for it, and is
		// not scatter time.
		for dir := range subs {
			subs[dir] = subs[dir][:0]
			for _, r := range live {
				if r.Direction(iter) == Direction(dir) {
					subs[dir] = append(subs[dir], r)
				}
			}
			if len(subs[dir]) > 0 {
				if err := p.Engine.Resolve(Direction(dir), subs[dir], pass); err != nil {
					return nil, err
				}
			}
		}
		t0 := time.Now()
		for dir, s := range subs {
			if len(s) > 0 {
				if err := p.Engine.Scatter(ctx, Direction(dir), s, pass); err != nil {
					return nil, err
				}
			}
		}
		scatterDur := time.Since(t0)

		// Shuffle, then gather (with selective scheduling it doubles as the
		// census for the next frontier). Co-scheduled runs overlap the two,
		// so the pass splits the phase where the last stream was sealed.
		t1 := time.Now()
		shuffleDur, err := EndAndGather(live, p.Threads)
		if err != nil {
			return nil, err
		}
		gatherDur := time.Since(t1) - shuffleDur
		pass.ScatterTime += scatterDur
		pass.ShuffleTime += shuffleDur
		pass.GatherTime += gatherDur
		continues := false
		for _, r := range live {
			if err := r.EndIteration(iter); err != nil {
				return nil, err
			}
			continues = continues || !r.Done()
		}
		pass.Iterations = iter + 1
		if tr != nil {
			it, jobs := int64(iter), int64(len(live))
			tr.Span(0, "scatter", t0, scatterDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "shuffle", t1, shuffleDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "gather", t1.Add(shuffleDur), gatherDur, map[string]int64{"iter": it, "jobs": jobs})
			tr.Span(0, "iteration", iterStart, time.Since(iterStart), map[string]int64{"iter": it})
		}
		if hook != nil {
			if err := hook.AfterIteration(iter, continues, pass); err != nil {
				return nil, err
			}
		}
		pass.PushIter(iter, iterMark, time.Since(iterStart))
	}

	results, err := FinishPass(p.Runs, pass, p.Start)
	if err != nil {
		return nil, err
	}
	pass.TotalTime = time.Since(p.Start)
	if tr != nil {
		tr.Span(0, "run", p.Start, pass.TotalTime, map[string]int64{
			"iterations": int64(pass.Iterations), "jobs": int64(len(p.Runs)),
		})
	}
	return results, nil
}

// TileRun is a run of a partition's consecutive tiles, First up to End,
// and the records [Lo, Hi) of the partition's edges they hold.
type TileRun struct {
	First, End int
	Lo, Hi     int64
}

// PartitionPlan is a shared scatter's plan for one partition of a stream:
// the subscribers it is streamed to, the tiles streamed, and every skip the
// plan makes. The skips are booked on the runs as they are planned, and
// summed for the pass until Book. A scatter keeps one per worker and
// re-plans it partition after partition; the zero value is ready to plan.
//
// A stream is cut, partition by partition, into tiles of tileRecs records,
// the last one shorter: tile i of a partition holds its records
// [i·tileRecs, min((i+1)·tileRecs, recs)).
type PartitionPlan struct {
	// Needing holds the subscribers that need the partition.
	Needing []JobRun
	// Tiled says the partition is planned tile by tile: some needing run is
	// partially active, and the stream has a tile index. A dense or fully
	// active run needs every tile, so a partition no run is partially
	// active in streams whole.
	Tiled bool
	// Runs holds the streamed tiles, ascending, as runs of consecutive ids;
	// none when no run needs the partition or it has no records.
	Runs []TileRun
	// Streamed is the number of records Runs hold.
	Streamed int64

	p              int
	recs, tileRecs int64
	ix             *TileIndex
	ids, mine      []int32   // a tiled plan's tiles; Delivered's share of them
	own            []TileRun // Delivered's runs

	skipEdges, skipParts, skipTiles int64 // skipped since the last Book
}

// Plan plans partition p, whose edges are recs records in tiles of
// tileRecs, for the stream's subscribers subs; ix is the stream's tile
// index, nil when no subscriber has a frontier. A subscriber that does not
// need p skips it whole; a tile no needing run needs is skipped by all of
// them — each would have skipped it in a pass of its own.
func (pl *PartitionPlan) Plan(subs []JobRun, p int, recs int64, tileRecs int, ix *TileIndex) {
	pl.Needing, pl.Tiled, pl.Runs, pl.Streamed = pl.Needing[:0], false, pl.Runs[:0], 0
	pl.p, pl.recs, pl.tileRecs, pl.ix = p, recs, int64(tileRecs), ix
	for _, r := range subs {
		if !r.NeedsPartition(p) {
			if recs > 0 { // an edgeless partition elides nothing, so it is not counted
				r.Skip(recs, 1, 0)
			}
			continue
		}
		pl.Needing = append(pl.Needing, r)
		pl.Tiled = pl.Tiled || ix != nil && r.PartiallyActive(p)
	}
	switch {
	case len(pl.Needing) == 0:
		if recs > 0 {
			pl.skipEdges += recs
			pl.skipParts++
		}
	case !pl.Tiled:
		if recs > 0 {
			pl.Runs = append(pl.Runs, pl.run(0, int((recs+pl.tileRecs-1)/pl.tileRecs)))
			pl.Streamed = recs
		}
	default:
		pl.ids = pl.neededTiles(ix, p, pl.ids)
		pl.Runs, pl.Streamed = pl.coalesce(pl.Runs, pl.ids)
		if tiles := ix.Tiles(p) - len(pl.ids); tiles > 0 {
			pl.skip(recs-pl.Streamed, int64(tiles))
		}
	}
}

// run returns the run of tiles [first, end).
func (pl *PartitionPlan) run(first, end int) TileRun {
	return TileRun{First: first, End: end, Lo: int64(first) * pl.tileRecs, Hi: min(int64(end)*pl.tileRecs, pl.recs)}
}

// coalesce appends to dst the runs of consecutive ids among the ascending
// tile ids, and returns the records they hold.
func (pl *PartitionPlan) coalesce(dst []TileRun, ids []int32) ([]TileRun, int64) {
	var recs int64
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		run := pl.run(int(ids[i]), int(ids[j-1])+1)
		dst, recs = append(dst, run), recs+run.Hi-run.Lo
		i = j
	}
	return dst, recs
}

// skip books edges records and tiles tiles skipped by every needing run.
func (pl *PartitionPlan) skip(edges, tiles int64) {
	for _, r := range pl.Needing {
		r.Skip(edges, 0, tiles)
	}
	pl.skipEdges += edges
	pl.skipTiles += tiles
}

// SkipRecords books edges records of the planned runs that the engine
// delivered to no needing run — the blocks of a tile no run's frontier
// reaches — as skipped by each of them and by the pass.
func (pl *PartitionPlan) SkipRecords(edges int64) { pl.skip(edges, 0) }

// Delivered returns the runs of tiles needing run i is handed: Runs, less
// the tiles of a tiled plan its own frontier misses, booked as its skips,
// so it scatters and skips what it would in a pass of its own. Call it once
// per needing run; the runs are in the plan's storage until the next call.
func (pl *PartitionPlan) Delivered(i int) []TileRun {
	r := pl.Needing[i]
	if !pl.Tiled || len(pl.Needing) == 1 || !r.PartiallyActive(pl.p) {
		return pl.Runs // a dense or fully active run needs every tile
	}
	pl.mine = pl.mine[:0]
	for _, t := range pl.ids {
		if r.NeedsTile(pl.ix.Span(pl.p, int(t))) {
			pl.mine = append(pl.mine, t)
		}
	}
	withheld := len(pl.ids) - len(pl.mine)
	if withheld == 0 {
		return pl.Runs
	}
	own, recs := pl.coalesce(pl.own[:0], pl.mine)
	pl.own = own
	r.Skip(pl.Streamed-recs, 0, int64(withheld))
	return own
}

// Book adds what the plans since the last Book skipped — the records, the
// whole partitions and the tiles no needing run was streamed — to pass.
func (pl *PartitionPlan) Book(pass *Stats) {
	pass.EdgesSkipped += pl.skipEdges
	pass.PartitionsSkipped += pl.skipParts
	pass.TilesSkipped += pl.skipTiles
	pl.skipEdges, pl.skipParts, pl.skipTiles = 0, 0, 0
}

// NeedsTile is the plan's union tile predicate: whether some needing run
// may need a tile, or a block of one, with the given source span.
func (pl *PartitionPlan) NeedsTile(span SrcSpan) bool {
	for _, r := range pl.Needing {
		if r.NeedsTile(span) {
			return true
		}
	}
	return false
}

// neededTiles returns, ascending and in dst's storage, the ids of partition
// p's tiles in ix that NeedsTile accepts — the tiles of a Tiled plan that
// are streamed. When every needing run is partially active the candidates
// are the tiles ix files under the runs' active words in p, plus the wide
// ones, so the plan costs what the frontiers hold; a dense or fully active
// run makes every tile a candidate. Each candidate is then decided by
// NeedsTile, so the result is exactly a walk of every tile.
func (pl *PartitionPlan) neededTiles(ix *TileIndex, p int, dst []int32) []int32 {
	ids := dst[:0]
	all := false
	for _, r := range pl.Needing {
		all = all || !r.PartiallyActive(p)
	}
	if all {
		for i := range ix.Tiles(p) {
			ids = append(ids, int32(i))
		}
	} else {
		for _, r := range pl.Needing {
			ids = ix.candidates(p, r.ActiveWords(p), ids)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	kept := ids[:0]
	for _, i := range ids {
		if pl.NeedsTile(ix.Span(p, int(i))) {
			kept = append(kept, i)
		}
	}
	return kept
}
