package diskengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tilecodec"
)

// referencePlanSegments is the tile plan as a per-tile walk: every tile
// when need is nil, else every tile asked need once and runs of needed
// tiles coalesced — the planner the word→tile plan replaced, kept as its
// oracle.
func referencePlanSegments(t *diskTiles, p int, need func(core.SrcSpan) bool) (segs []edgeSegment, skippedRecs, skippedTiles int64) {
	tiles := t.parts[p]
	first, lo, off := -1, int64(0), int64(0) // first tile and record of the open run; -1: none
	closeRun := func(end int) {
		segs = append(segs, edgeSegment{lo: lo, hi: off, tiles: tiles[first:end]})
		first = -1
	}
	for i, tile := range tiles {
		if need == nil || need(t.spans[p][i]) {
			if first < 0 {
				first, lo = i, off
			}
		} else {
			if first >= 0 {
				closeRun(i)
			}
			skippedRecs += tile.recs
			skippedTiles++
		}
		off += tile.recs
	}
	if first >= 0 {
		closeRun(len(tiles))
	}
	return segs, skippedRecs, skippedTiles
}

// scheduleRun is a core.JobRun whose scheduling half is a core.Schedule —
// everything a partition plan asks of a run.
type scheduleRun struct {
	core.JobRun
	s *core.Schedule
}

func (r scheduleRun) NeedsPartition(p int) bool           { return r.s.NeedsPartition(p) }
func (r scheduleRun) PartiallyActive(p int) bool          { return r.s.PartiallyActive(p) }
func (r scheduleRun) NeedsTile(span core.SrcSpan) bool    { return r.s.NeedsTile(span) }
func (r scheduleRun) ActiveWords(p int) []uint32          { return r.s.ActiveWords(p) }
func (r scheduleRun) Skip(edges, partitions, tiles int64) { r.s.Skip(edges, partitions, tiles) }

// planRuns plans partition p of tiles for runs and returns the reads of
// its planned runs of tiles.
func planRuns(plan *core.PartitionPlan, runs []core.JobRun, tiles *diskTiles, ix *core.TileIndex, p int) []edgeSegment {
	plan.Plan(runs, p, tiles.totalRecs(p), int(tiles.tileRecs), ix)
	var segs []edgeSegment
	for _, run := range plan.Runs {
		segs = append(segs, tiles.segment(p, run.First, run.End))
	}
	return segs
}

// TestTilePlanMatchesWalk: over seeded random tile indexes — narrow and wide
// spans, raw and compressed layouts, splits whose partitions are narrower
// and wider than a frontier word — and random frontiers for one to three
// runs, among them a fully active and a dense one, the segments of the
// core.PartitionPlan's runs of tiles are the ones the per-tile walk reads,
// and the plan books the records and tiles the walk skips. The shuffled
// layouts of both formats plan the same way on random frontiers too.
func TestTilePlanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	check := func(name string, tiles *diskTiles, part core.Split, nv int64) {
		t.Helper()
		ix := tiles.tileIndex()
		runs, _ := randomRuns(rng, part, nv)
		var plan core.PartitionPlan
		for p := 0; p < part.K; p++ {
			segs := planRuns(&plan, runs, tiles, ix, p)
			var need func(core.SrcSpan) bool
			if plan.Tiled {
				need = plan.NeedsTile
			}
			want, wsr, wst := referencePlanSegments(tiles, p, need)
			if len(plan.Needing) == 0 {
				want, wsr, wst = nil, tiles.totalRecs(p), 0
			}
			var pass core.Stats
			plan.Book(&pass)
			if sr, st := pass.EdgesSkipped, pass.TilesSkipped; !reflect.DeepEqual(segs, want) || sr != wsr || st != wst {
				t.Fatalf("%s partition %d (tiled %v): planned %+v skipping %d/%d, the walk %+v skipping %d/%d",
					name, p, plan.Tiled, segs, sr, st, want, wsr, wst)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Int63n(3000)
		part := core.NewSplit(nv, 1+rng.Intn(64))
		for _, compressed := range []bool{false, true} {
			// The shuffle cuts every partition into full tiles and a
			// shorter last one.
			tiles := newDiskTiles(part.K, Config{TileEdges: 64, CompressTiles: compressed, Selective: true})
			for p := 0; p < part.K; p++ {
				lo, hi := part.Range(p, nv)
				if lo >= hi {
					continue
				}
				n := rng.Intn(40)
				for i := range n {
					width := 1 + rng.Int63n(min(hi-lo, 64*(1+rng.Int63n(10))))
					if rng.Intn(8) == 0 {
						width = 1 + rng.Int63n(hi-lo)
					}
					a := lo + rng.Int63n(hi-lo-width+1)
					recs := tiles.tileRecs
					if i == n-1 {
						recs = 1 + rng.Int63n(recs)
					}
					tiles.spans[p] = append(tiles.spans[p], core.SrcSpan{Lo: core.VertexID(a), Hi: core.VertexID(a + width - 1)})
					tiles.appendTile(p, tileSpan{recs: recs})
				}
			}
			check("random", tiles, part, nv)
		}
	}
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 64)
		nv, _ := smallGraph(33)
		part := core.NewSplit(nv.NumVertices(), len(files))
		for trial := 0; trial < 50; trial++ {
			check("shuffled", tiles, part, nv.NumVertices())
		}
	}
}

// randomRuns draws one to three runs over nv vertices split as part:
// mostly partially active frontiers of random density, and among them,
// when drawn, one fully active run and one dense run. It returns each run's
// active vertices too, nil for the dense one.
func randomRuns(rng *rand.Rand, part core.Split, nv int64) ([]core.JobRun, [][]bool) {
	runs := make([]core.JobRun, 1+rng.Intn(3))
	active := make([][]bool, len(runs))
	for i := range runs {
		s := new(core.Schedule)
		switch kind := rng.Intn(6); {
		case kind == 0 && i == 0: // dense
			s.InitSchedule(part, nv, false)
		case kind == 1 && i == 1: // fully active
			s.InitSchedule(part, nv, true)
			active[i] = make([]bool, nv)
			for v := int64(0); v < nv; v++ {
				s.Seed(core.VertexID(v))
				active[i][v] = true
			}
		default:
			s.InitSchedule(part, nv, true)
			active[i] = make([]bool, nv)
			density := rng.Float64() * rng.Float64() * 0.2
			for v := int64(0); v < nv; v++ {
				if rng.Float64() < density {
					s.Seed(core.VertexID(v))
					active[i][v] = true
				}
			}
		}
		s.Recount()
		runs[i] = scheduleRun{s: s}
	}
	return runs, active
}

// TestRawTileCRCOnlyUnderVerification: the shuffle checksums a raw tile only
// for a handle that verifies its reads. A verifying handle's tiles carry the
// CRC32C of the records at their (off, bytes); a NoVerify handle's carry
// none.
func TestRawTileCRCOnlyUnderVerification(t *testing.T) {
	src, _ := smallGraph(35)
	for _, noVerify := range []bool{false, true} {
		pp, err := Prepare(src, Config{Device: ssd(0), Threads: 2, Partitions: 4, IOUnit: 4 << 10, TileEdges: 128, NoVerify: noVerify})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for p, tiles := range pp.tilesFwd.parts {
			for i, tl := range tiles {
				b := make([]byte, tl.bytes)
				if err := storage.ReadFull(pp.edgeFiles[p].f, b, tl.off); err != nil {
					t.Fatal(err)
				}
				want := storage.Checksum(b)
				if noVerify {
					want = 0
				}
				if tl.crc != want {
					t.Fatalf("NoVerify %v: partition %d tile %d carries CRC %08x, want %08x", noVerify, p, i, tl.crc, want)
				}
				n++
			}
		}
		pp.Close()
		if n < 8 {
			t.Fatalf("NoVerify %v: only %d tiles", noVerify, n)
		}
	}
}

// TestBlockPlanMatchesWalk is TestTilePlanMatchesWalk's block-level twin:
// over seeded random edge files written by the shuffle's tileWriter — raw
// and encoded, narrow and wide block spans, tiles that are not a multiple
// of the block and short last tiles — and random frontiers for one to three
// runs (fully active, dense, partially active and empty among them), a
// partition streamed the way diskPass.Scatter streams it (the tile plan,
// then the union block predicate on a tiled plan) delivers exactly the
// records a per-record walk keeps: every tilecodec.BlockRecs-record block
// of each tile whose source span holds an active vertex of some run that
// needs the partition, or a dense run's, in file order. Delivered and
// skipped records add up to the partition's dense count.
func TestBlockPlanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	dev := ssd(0)
	var blocksSkipped [2]int64 // raw, encoded
	for trial := 0; trial < 60; trial++ {
		nv := 64 + rng.Int63n(4000)
		part := core.NewSplit(nv, 1+rng.Intn(8))
		layout := trial % 2
		compressed := layout == 1
		tileRecs := []int{64, 100, 256, 1024}[rng.Intn(4)]
		files := make([]*partFile, part.K)
		for p := range files {
			var err error
			if files[p], err = createPartFile(dev, fmt.Sprintf("blockplan%d-p%02d.edges", trial, p)); err != nil {
				t.Fatal(err)
			}
		}
		tiles := newDiskTiles(part.K, Config{TileEdges: tileRecs, CompressTiles: compressed, Selective: true})
		w := newTileWriter(files, tiles)
		recs := make([][]core.Edge, part.K)
		for p := range recs {
			lo, hi := part.Range(p, nv)
			if lo >= hi {
				continue
			}
			wide := rng.Intn(3) == 0
			center := lo
			for range rng.Intn(3000) {
				src := lo + rng.Int63n(hi-lo)
				if !wide {
					if rng.Intn(40) == 0 {
						center = lo + rng.Int63n(hi-lo)
					}
					src = min(hi-1, center+rng.Int63n(48))
				}
				recs[p] = append(recs[p], core.Edge{Src: core.VertexID(src), Dst: core.VertexID(rng.Int63n(nv)), Weight: float32(rng.Intn(4))})
			}
			for run := recs[p]; len(run) > 0; {
				n := min(len(run), 1+rng.Intn(500))
				if err := w.append(p, run[:n]); err != nil {
					t.Fatal(err)
				}
				run = run[n:]
			}
		}
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
		ix := tiles.tileIndex()
		runs, active := randomRuns(rng, part, nv)
		if rng.Intn(4) == 0 { // a run whose frontier is empty
			s := new(core.Schedule)
			s.InitSchedule(part, nv, true)
			s.Recount()
			runs, active = append(runs, scheduleRun{s: s}), append(active, make([]bool, nv))
		}
		sc := new(edgeScratch)
		var plan core.PartitionPlan
		for p := 0; p < part.K; p++ {
			lo, hi := part.Range(p, nv)
			// The walk: a run needs p when it is dense or holds an active
			// vertex of p; a block is kept when a needing run is dense or
			// holds an active vertex in the block's span.
			var needing [][]bool
			dense := false
			for _, act := range active {
				if act == nil {
					dense = true
					needing = append(needing, nil)
				} else if slices.Contains(act[lo:hi], true) {
					needing = append(needing, act)
				}
			}
			var want []core.Edge
			for t0 := 0; t0 < len(recs[p]); t0 += tileRecs {
				tile := recs[p][t0:min(t0+tileRecs, len(recs[p]))]
				for b := 0; b < len(tile); b += tilecodec.BlockRecs {
					blk := tile[b:min(b+tilecodec.BlockRecs, len(tile))]
					span := core.NewSrcSpan(blk[0].Src)
					for _, ed := range blk {
						span.Add(ed.Src)
					}
					keep := dense
					for _, act := range needing {
						keep = keep || act != nil && slices.Contains(act[span.Lo:span.Hi+1], true)
					}
					if keep {
						want = append(want, blk...)
					}
				}
			}

			total := tiles.totalRecs(p)
			segs := planRuns(&plan, runs, tiles, ix, p)
			if len(plan.Needing) != len(needing) {
				t.Fatalf("trial %d partition %d: %d runs need it, the walk says %d", trial, p, len(plan.Needing), len(needing))
			}
			if len(plan.Needing) == 0 {
				var pass core.Stats
				plan.Book(&pass)
				if len(want) != 0 || pass.EdgesSkipped != total {
					t.Fatalf("trial %d partition %d: no run needs it, the walk keeps %d records, the plan skips %d of %d",
						trial, p, len(want), pass.EdgesSkipped, total)
				}
				continue
			}
			var need func(core.SrcSpan) bool
			if plan.Tiled {
				need = plan.NeedsTile
			}
			var got []core.Edge
			chunkRecs := tileRecs * (1 + rng.Intn(3))
			io, skippedBlocks, err := streamSegments(nil, sc, files[p], compressed, true, segs, chunkRecs, rng.Intn(2) == 0, need, func(chunk []core.Edge) error {
				got = append(got, chunk...)
				return nil
			})
			if err != nil {
				t.Fatalf("trial %d partition %d: %v", trial, p, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d partition %d (compressed %v, tiles of %d, tiled %v): delivered %d records, the walk keeps %d",
					trial, p, compressed, tileRecs, plan.Tiled, len(got), len(want))
			}
			plan.SkipRecords(skippedBlocks)
			var pass core.Stats
			plan.Book(&pass)
			if delivered := io.logical/edgeRecSize - skippedBlocks; delivered != int64(len(got)) || delivered+pass.EdgesSkipped != total {
				t.Fatalf("trial %d partition %d: %d delivered, %d skipped in blocks and %d in all, of %d records",
					trial, p, delivered, skippedBlocks, pass.EdgesSkipped, total)
			}
			blocksSkipped[layout] += skippedBlocks
		}
		for _, f := range files {
			f.remove()
		}
	}
	if blocksSkipped[0] == 0 || blocksSkipped[1] == 0 {
		t.Fatalf("records skipped in blocks, raw and encoded: %v; the draws skip none", blocksSkipped)
	}
}
