package diskengine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// referencePlanSegments is planSegments as a two-pass walk that re-asks
// need at every run boundary and re-sums the index — the planner the
// one-pass walk replaced, kept as its oracle.
func referencePlanSegments(t *diskTiles, p int, need func(core.SrcSpan) bool, fileRecs int64) (segs []edgeSegment, skippedRecs, skippedTiles int64) {
	if !t.compressed {
		var total int64
		for _, tile := range t.parts[p] {
			total += tile.recs
		}
		if total != fileRecs {
			return []edgeSegment{{lo: 0, hi: fileRecs}}, 0, 0
		}
		rr, sr, st := t.activeSegmentsFunc(p, need, fileRecs)
		for _, r := range rr {
			segs = append(segs, edgeSegment{lo: r.lo, hi: r.hi})
		}
		return segs, sr, st
	}
	tiles := t.parts[p]
	off := int64(0)
	for i := 0; i < len(tiles); {
		if need != nil && !need(tiles[i].span) {
			skippedRecs += tiles[i].recs
			skippedTiles++
			off += tiles[i].recs
			i++
			continue
		}
		j, lo := i, off
		for j < len(tiles) && (need == nil || need(tiles[j].span)) {
			off += tiles[j].recs
			j++
		}
		segs = append(segs, edgeSegment{lo: lo, hi: off, tiles: tiles[i:j]})
		i = j
	}
	return segs, skippedRecs, skippedTiles
}

// TestPlanSegmentsAsksOncePerTile: over both layouts' indexes, the planner
// asks need exactly once per tile and plans what the two-pass walk planned
// — segments, their tile runs and the skip counts — on random need masks,
// and every partition's kept record total equals its tiles' sum.
func TestPlanSegmentsAsksOncePerTile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, compressed := range []bool{false, true} {
		files, tiles := shuffleLayout(t, compressed, 64)
		for p := range files {
			var sum int64
			for _, tl := range tiles.parts[p] {
				sum += tl.recs
			}
			if got := tiles.totalRecs(p); got != sum {
				t.Fatalf("compressed=%v partition %d: total %d records, tiles sum to %d", compressed, p, got, sum)
			}
			fileRecs := edgeFileRecs(files[p], tiles, p)
			for trial := 0; trial < 50; trial++ {
				density := rng.Float64()
				mask := map[core.SrcSpan]bool{}
				for _, tl := range tiles.parts[p] {
					if _, ok := mask[tl.span]; !ok {
						mask[tl.span] = rng.Float64() < density
					}
				}
				calls := 0
				segs, sr, st := planSegments(tiles, p, func(s core.SrcSpan) bool { calls++; return mask[s] }, fileRecs)
				if calls != len(tiles.parts[p]) {
					t.Fatalf("compressed=%v partition %d: need asked %d times over %d tiles", compressed, p, calls, len(tiles.parts[p]))
				}
				want, wsr, wst := referencePlanSegments(tiles, p, func(s core.SrcSpan) bool { return mask[s] }, fileRecs)
				if !reflect.DeepEqual(segs, want) || sr != wsr || st != wst {
					t.Fatalf("compressed=%v partition %d: planned %+v skipping %d/%d, two-pass walk %+v skipping %d/%d",
						compressed, p, segs, sr, st, want, wsr, wst)
				}
			}
		}
	}
}
