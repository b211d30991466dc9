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

// PartitionPlan is a shared scatter's plan for one partition of a stream:
// the subscribers it is streamed to, and whether tile by tile. A scatter
// keeps one per worker and re-plans it partition after partition; the zero
// value is ready to plan.
type PartitionPlan struct {
	// Needing holds the subscribers that need the partition.
	Needing []JobRun
	// Tiled says the partition is scheduled tile by tile: some needing run
	// is partially active, and the engine has a tile index. A dense or
	// fully active run needs every tile, so a partition no run is partially
	// active in would stream whole anyway.
	Tiled bool
}

// Plan plans partition p, whose edge chunk holds chunkEdges records, for
// the stream's subscribers subs; indexed says the engine has a tile index
// for the stream. Each subscriber that does not need p skips the chunk.
func (pl *PartitionPlan) Plan(subs []JobRun, p int, chunkEdges int64, indexed bool) {
	pl.Needing, pl.Tiled = pl.Needing[:0], false
	for _, r := range subs {
		if !r.NeedsPartition(p) {
			r.SkipPartition(chunkEdges)
			continue
		}
		pl.Needing = append(pl.Needing, r)
		pl.Tiled = pl.Tiled || indexed && r.PartiallyActive(p)
	}
}

// NeedsTile is the plan's union tile predicate: whether some needing run
// may need a tile with the given source span. A tile none needs is skipped
// by all of them — each would have skipped it in a pass of its own.
func (pl *PartitionPlan) NeedsTile(span SrcSpan) bool {
	for _, r := range pl.Needing {
		if r.NeedsTile(span) {
			return true
		}
	}
	return false
}

// NeededTiles returns, ascending and in dst's storage, the ids of partition
// p's tiles in ix that NeedsTile accepts — the tiles of a Tiled plan that
// are streamed. When every needing run is partially active the candidates
// are the tiles ix files under the runs' active words in p, plus the wide
// ones, so the plan costs what the frontiers hold; a dense or fully active
// run makes every tile a candidate. Each candidate is then decided by
// NeedsTile, so the result is exactly a walk of every tile.
func (pl *PartitionPlan) NeededTiles(ix *TileIndex, p int, dst []int32) []int32 {
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
