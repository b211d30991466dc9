package diskengine

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/partition2ps"
)

// TestPageRankNeverTransposes: PageRank reads its out-degrees from the
// degree files pre-processing wrote, so no PageRank job builds the
// transposed edge files — through Run or RunJob (no .redges file is ever
// created on the device), nor in a cached Prepare's pass co-scheduled with
// BFS (the handle's bwdFiles stay nil), under either partitioner. The three
// agree on the ranks. SCC, the backward program, still builds the transpose.
func TestPageRankNeverTransposes(t *testing.T) {
	src, _ := smallGraph(47)
	for _, pr := range []core.Partitioner{core.RangePartitioner{}, partition2ps.New()} {
		t.Run(pr.Name(), func(t *testing.T) {
			dev := &createLog{Device: ssd(0)}
			cfg := Config{Device: dev, Threads: 2, IOUnit: 8 << 10, Partitions: 4, Partitioner: pr}
			solo, err := Run(src, algorithms.NewPageRank(4), cfg)
			if err != nil {
				t.Fatal(err)
			}
			job, err := RunJob(context.Background(), src, core.NewJob(algorithms.NewPageRank(4)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dev.created("ds-p0000.redges") {
				t.Fatalf("a PageRank Run or RunJob created a transposed edge file: %v", dev.names)
			}
			pp, err := Prepare(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pp.Close()
			res, _, err := pp.RunMany(context.Background(), core.ProgramSet{
				core.NewJob(algorithms.NewPageRank(4)), core.NewJob(algorithms.NewBFS(0)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if pp.bwdFiles != nil || pp.tilesBwd != nil || dev.created("ds-p0000.redges") {
				t.Fatal("a cached PageRank pass built the transposed files")
			}
			if !reflect.DeepEqual(solo.Vertices, job.Vertices) || !reflect.DeepEqual(solo.Vertices, res[0].Vertices) {
				t.Fatal("Run, RunJob and the cached pass disagree on PageRank's vertices")
			}
			if solo.Stats.Iterations != 4 {
				t.Fatalf("PageRank(4) ran %d iterations", solo.Stats.Iterations)
			}
			if _, _, err := pp.RunMany(context.Background(), core.ProgramSet{core.NewJob(algorithms.NewSCC())}); err != nil {
				t.Fatal(err)
			}
			if pp.bwdFiles == nil || !dev.created("ds-p0000.redges") {
				t.Fatal("SCC ran without the transposed files")
			}
		})
	}
}

// TestSelectiveSpansMatchTiles: only a selective handle records its tiles'
// source spans, and the spans it records are each tile's own — the span of
// the records the tile holds, as the word→tile plan (TestTilePlanMatchesWalk)
// assumes — in both layouts. A dense handle's tiles carry the same record
// counts, placement and checksums, but no span.
func TestSelectiveSpansMatchTiles(t *testing.T) {
	src, _ := smallGraph(53)
	for _, compressed := range []bool{false, true} {
		var layouts [2]*Prepared
		for i, selective := range []bool{false, true} {
			pp, err := Prepare(src, Config{
				Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4, TileEdges: 64,
				CompressTiles: compressed, Selective: selective,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pp.Close()
			layouts[i] = pp
		}
		dense, sel := layouts[0], layouts[1]
		if dense.tilesFwd.spans != nil || sel.tilesFwd.spans == nil {
			t.Fatalf("compressed %v: spans kept by the dense handle %v, by the selective one %v", compressed, dense.tilesFwd.spans != nil, sel.tilesFwd.spans != nil)
		}
		tiles := 0
		for p := range sel.tilesFwd.parts {
			recs := partitionRecords(t, sel.edgeFiles[p], sel.tilesFwd, p, false)
			for i, tl := range sel.tilesFwd.parts[p] {
				want := core.NewSrcSpan(recs[tl.lo].Src)
				for _, ed := range recs[tl.lo : tl.lo+tl.recs] {
					want.Add(ed.Src)
				}
				if span := sel.tilesFwd.spans[p][i]; span != want {
					t.Fatalf("compressed %v: partition %d tile %d records span %+v, the index says %+v", compressed, p, i, want, span)
				}
				if dt := dense.tilesFwd.parts[p][i]; dt != tl {
					t.Fatalf("compressed %v: partition %d tile %d: dense %+v, selective %+v", compressed, p, i, dense.tilesFwd.parts[p][i], tl)
				}
				tiles++
			}
		}
		if tiles < 16 {
			t.Fatalf("compressed %v: only %d tiles", compressed, tiles)
		}
	}
}
