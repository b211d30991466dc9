package diskengine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
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
		if need == nil || need(tile.span) {
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

func (r scheduleRun) NeedsPartition(p int) bool        { return r.s.NeedsPartition(p) }
func (r scheduleRun) PartiallyActive(p int) bool       { return r.s.PartiallyActive(p) }
func (r scheduleRun) NeedsTile(span core.SrcSpan) bool { return r.s.NeedsTile(span) }
func (r scheduleRun) ActiveWords(p int) []uint32       { return r.s.ActiveWords(p) }
func (r scheduleRun) SkipPartition(chunkEdges int64)   { r.s.SkipPartition(chunkEdges) }

// TestTilePlanMatchesWalk: over seeded random tile indexes — narrow and wide
// spans, raw and compressed layouts, splits whose partitions are narrower
// and wider than a frontier word — and random frontiers for one to three
// runs, among them a fully active and a dense one, planSegments over the
// word→tile plan reads the segments the per-tile walk reads and skips the
// same records and tiles. The shuffled layouts of both formats plan the same
// way on random frontiers too.
func TestTilePlanMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	check := func(name string, tiles *diskTiles, part core.Split, nv int64) {
		t.Helper()
		ix := tiles.tileIndex()
		runs := randomRuns(rng, part, nv)
		var plan core.PartitionPlan
		var ids []int32
		for p := 0; p < part.K; p++ {
			plan.Plan(runs, p, tiles.totalRecs(p), true)
			var need func(core.SrcSpan) bool
			if plan.Tiled {
				ids = plan.NeededTiles(ix, p, ids)
				need = plan.NeedsTile
			}
			segs, sr, st := planSegments(tiles, p, plan.Tiled, ids, nil)
			want, wsr, wst := referencePlanSegments(tiles, p, need)
			if !reflect.DeepEqual(segs, want) || sr != wsr || st != wst {
				t.Fatalf("%s partition %d (tiled %v): planned %+v skipping %d/%d, the walk %+v skipping %d/%d",
					name, p, plan.Tiled, segs, sr, st, want, wsr, wst)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Int63n(3000)
		part := core.NewSplit(nv, 1+rng.Intn(64))
		for _, compressed := range []bool{false, true} {
			tiles := newDiskTiles(part.K, Config{TileEdges: 64, CompressTiles: compressed, Selective: true})
			for p := 0; p < part.K; p++ {
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
					tiles.appendTile(p, tileSpan{recs: 1 + rng.Int63n(64), span: core.SrcSpan{Lo: core.VertexID(a), Hi: core.VertexID(a + width - 1)}})
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
// when drawn, one fully active run and one dense run.
func randomRuns(rng *rand.Rand, part core.Split, nv int64) []core.JobRun {
	runs := make([]core.JobRun, 1+rng.Intn(3))
	for i := range runs {
		s := new(core.Schedule)
		switch kind := rng.Intn(6); {
		case kind == 0 && i == 0: // dense
			s.InitSchedule(part, nv, false)
		case kind == 1 && i == 1: // fully active
			s.InitSchedule(part, nv, true)
			for v := int64(0); v < nv; v++ {
				s.Seed(core.VertexID(v))
			}
		default:
			s.InitSchedule(part, nv, true)
			density := rng.Float64() * rng.Float64() * 0.2
			for v := int64(0); v < nv; v++ {
				if rng.Float64() < density {
					s.Seed(core.VertexID(v))
				}
			}
		}
		s.Recount()
		runs[i] = scheduleRun{s: s}
	}
	return runs
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
				if err := readBytes(pp.edgeFiles[p].f, b, tl.off); err != nil {
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
