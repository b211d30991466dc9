package core

import (
	"math/rand"
	"slices"
	"testing"
)

// scheduleRun is a JobRun whose scheduling half is a Schedule — everything
// a partition plan asks of a run.
type scheduleRun struct {
	JobRun
	s *Schedule
}

func (r scheduleRun) NeedsPartition(p int) bool           { return r.s.NeedsPartition(p) }
func (r scheduleRun) PartiallyActive(p int) bool          { return r.s.PartiallyActive(p) }
func (r scheduleRun) NeedsTile(span SrcSpan) bool         { return r.s.NeedsTile(span) }
func (r scheduleRun) ActiveWords(p int) []uint32          { return r.s.ActiveWords(p) }
func (r scheduleRun) Skip(edges, partitions, tiles int64) { r.s.Skip(edges, partitions, tiles) }

// randomTileRuns draws one to three runs over nv vertices split K ways:
// mostly partially active frontiers of random density, and among them,
// when drawn, one fully active run and one dense run.
func randomTileRuns(rng *rand.Rand, part Split, nv int64) []JobRun {
	runs := make([]JobRun, 1+rng.Intn(3))
	for i := range runs {
		s := new(Schedule)
		switch kind := rng.Intn(6); {
		case kind == 0 && i == 0: // dense
			s.InitSchedule(part, nv, false)
		case kind == 1 && i == 1: // fully active
			s.InitSchedule(part, nv, true)
			for v := int64(0); v < nv; v++ {
				s.Seed(VertexID(v))
			}
		default:
			s.InitSchedule(part, nv, true)
			density := rng.Float64() * rng.Float64() * 0.2
			for v := int64(0); v < nv; v++ {
				if rng.Float64() < density {
					s.Seed(VertexID(v))
				}
			}
		}
		s.Recount()
		runs[i] = scheduleRun{s: s}
	}
	return runs
}

// randomTileSpans draws each partition's tile spans inside its vertex
// range: narrow ones of a few words and, now and then, wide ones up to the
// partition's width.
func randomTileSpans(rng *rand.Rand, part Split, nv int64) [][]SrcSpan {
	spans := make([][]SrcSpan, part.K)
	for p := range spans {
		lo, hi := part.Range(p, nv)
		if lo >= hi {
			continue
		}
		for range rng.Intn(40) {
			width := 1 + rng.Int63n(min(hi-lo, 64*(1+rng.Int63n(10))))
			if rng.Intn(8) == 0 {
				width = 1 + rng.Int63n(hi-lo)
			}
			a := lo + rng.Int63n(hi-lo-width+1)
			spans[p] = append(spans[p], SrcSpan{Lo: VertexID(a), Hi: VertexID(a + width - 1)})
		}
	}
	return spans
}

// walkTiles is the tile plan as a walk: every tile of partition p asked
// whether some needing run needs it — the planner neededTiles replaced,
// kept as its oracle.
func walkTiles(needing []JobRun, spans []SrcSpan) []int32 {
	var ids []int32
	for i, span := range spans {
		for _, r := range needing {
			if r.NeedsTile(span) {
				ids = append(ids, int32(i))
				break
			}
		}
	}
	return ids
}

// TestTilePlanMatchesWalk: on seeded random spans, narrow and wide, over
// splits whose partitions are narrower and wider than a frontier word, and
// random frontiers for one to three runs, the runs of tiles the partition
// plan streams hold exactly the tiles the per-tile walk needs, and the index
// files no tile under more than narrowWords words.
func TestTilePlanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		nv := 1 + rng.Int63n(3000)
		k := 1 + rng.Intn(64)
		part := NewSplit(nv, k)
		spans := randomTileSpans(rng, part, nv)
		ix := NewTileIndex(spans)
		for p := range spans {
			if got := len(ix.parts[p].ids); got > narrowWords*len(spans[p]) {
				t.Fatalf("trial %d partition %d: %d index entries for %d tiles", trial, p, got, len(spans[p]))
			}
		}
		runs := randomTileRuns(rng, part, nv)
		tileRecs := 1 + rng.Intn(5)
		var plan PartitionPlan
		for p := 0; p < k; p++ {
			recs := int64(len(spans[p]) * tileRecs)
			if recs > 0 {
				recs -= rng.Int63n(int64(tileRecs)) // a shorter last tile
			}
			plan.Plan(runs, p, recs, tileRecs, ix)
			var ids []int32
			for _, run := range plan.Runs {
				if run.Lo != int64(run.First*tileRecs) || run.Hi != min(int64(run.End*tileRecs), recs) {
					t.Fatalf("trial %d partition %d: run %+v of %d-record tiles in %d records", trial, p, run, tileRecs, recs)
				}
				for i := run.First; i < run.End; i++ {
					ids = append(ids, int32(i))
				}
			}
			if want := walkTiles(plan.Needing, spans[p]); !slices.Equal(ids, want) {
				t.Fatalf("trial %d (nv %d, K %d) partition %d, tiled %v: planned %v, the walk needs %v",
					trial, nv, k, p, plan.Tiled, ids, want)
			}
		}
	}
}
