package diskengine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/streambuf"
)

// shuffleLayout runs the pre-processing shuffle of a small RMAT graph into
// partition edge files in the given layout and returns the files plus the
// tile index. The shuffle's layout, and so the run order the two layouts
// see, is the same at any thread count.
func shuffleLayout(t *testing.T, compressed bool, tileRecs int) ([]*partFile, *diskTiles) {
	t.Helper()
	src, _ := smallGraph(33)
	dev := ssd(0)
	const k = 4
	part := core.NewSplit(src.NumVertices(), k)
	plan, err := streambuf.NewPlan(k, k)
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*partFile, k)
	for p := range files {
		name := fmt.Sprintf("lay%v-p%02d.edges", compressed, p)
		if files[p], err = createPartFile(dev, name); err != nil {
			t.Fatal(err)
		}
	}
	tiles := newDiskTiles(k, Config{TileEdges: tileRecs, CompressTiles: compressed, Selective: true})
	if err := partitionEdgesInto(src, files, false, tiles, nil, 1024, plan, part, 3); err != nil {
		t.Fatal(err)
	}
	return files, tiles
}

// partitionRecords reads one partition's full edge stream back through the
// planned-segment path, decoding if the layout is compressed.
func partitionRecords(t *testing.T, f *partFile, tiles *diskTiles, p int, prefetch bool) []core.Edge {
	t.Helper()
	var out []core.Edge
	segs := tiles.whole(p)
	_, _, err := streamSegments(nil, new(edgeScratch), f, tiles.compressed, true, segs, 512, prefetch, nil, func(chunk []core.Edge) error {
		out = append(out, append([]core.Edge(nil), chunk...)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompressedShuffleRoundTrip shuffles the same graph into both layouts
// and requires the decoded compressed streams to be record-identical to the
// raw ones — order included — while the files themselves shrink.
func TestCompressedShuffleRoundTrip(t *testing.T) {
	rawFiles, rawTiles := shuffleLayout(t, false, 128)
	cmpFiles, cmpTiles := shuffleLayout(t, true, 128)
	var rawSize, cmpSize int64
	for p := range rawFiles {
		want := partitionRecords(t, rawFiles[p], rawTiles, p, true)
		for _, prefetch := range []bool{true, false} {
			got := partitionRecords(t, cmpFiles[p], cmpTiles, p, prefetch)
			if len(got) != len(want) {
				t.Fatalf("partition %d (prefetch=%v): %d records decoded, want %d", p, prefetch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("partition %d record %d: %+v != %+v", p, i, got[i], want[i])
				}
			}
		}
		rawSize += rawFiles[p].size
		cmpSize += cmpFiles[p].size
	}
	if cmpSize >= rawSize {
		t.Fatalf("compressed layout is %d bytes, raw is %d", cmpSize, rawSize)
	}
	if cmpTiles.tilesCompressed == 0 {
		t.Fatal("no tile was block-coded")
	}
	if cmpTiles.physBytes != cmpSize || cmpTiles.logicalBytes != rawSize {
		t.Fatalf("codec accounting: phys %d (files %d), logical %d (raw files %d)",
			cmpTiles.physBytes, cmpSize, cmpTiles.logicalBytes, rawSize)
	}
}

// TestCompressedTileSpansMatchRaw pins that compression leaves the
// selective-streaming index untouched: tile record counts and [min,max]
// source summaries are identical between layouts, so skip decisions — and
// therefore results — cannot differ. In both layouts the tiles' physical
// placements are contiguous and cover the file exactly, a raw tile's at
// its records' offset.
func TestCompressedTileSpansMatchRaw(t *testing.T) {
	rawFiles, rawTiles := shuffleLayout(t, false, 64)
	cmpFiles, cmpTiles := shuffleLayout(t, true, 64)
	contiguous := func(layout string, tiles []tileSpan, f *partFile) {
		t.Helper()
		var off int64
		for i, tl := range tiles {
			if tl.off != off {
				t.Fatalf("%s %s tile %d: physical offset %d, tiles before it end at %d", layout, f.name, i, tl.off, off)
			}
			off = tl.off + tl.bytes
		}
		if off != f.size {
			t.Fatalf("%s %s: tiles cover %d physical bytes, file has %d", layout, f.name, off, f.size)
		}
	}
	for p := range rawTiles.parts {
		rt, ct := rawTiles.parts[p], cmpTiles.parts[p]
		if len(rt) != len(ct) {
			t.Fatalf("partition %d: %d tiles compressed, %d raw", p, len(ct), len(rt))
		}
		for i := range rt {
			rs, cs := rawTiles.spans[p][i], cmpTiles.spans[p][i]
			if rt[i].recs != ct[i].recs || rs != cs {
				t.Fatalf("partition %d tile %d: compressed {recs %d span %+v}, raw {recs %d span %+v}",
					p, i, ct[i].recs, cs, rt[i].recs, rs)
			}
			if rt[i].off != rt[i].lo*edgeRecSize || rt[i].bytes != rt[i].recs*edgeRecSize {
				t.Fatalf("partition %d raw tile %d of records [%d,+%d) sits at (%d, %d)", p, i, rt[i].lo, rt[i].recs, rt[i].off, rt[i].bytes)
			}
		}
		contiguous("raw", rt, rawFiles[p])
		contiguous("compressed", ct, cmpFiles[p])
	}
}

func TestEngineParityCompressed(t *testing.T) {
	runBothWCC(t, Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4, CompressTiles: true})
}

func TestEngineParityCompressedSpillNoPrefetch(t *testing.T) {
	runBothWCC(t, spilled(Config{Device: ssd(0), Threads: 2, IOUnit: 8 << 10, Partitions: 4,
		CompressTiles: true, NoPrefetch: true}))
}

// TestCompressedStats runs the same job raw and compressed and checks the
// new accounting: identical results are covered by the parity tests, here
// the physical reads must shrink while the logical volume matches the raw
// run's, and the layout metrics must be populated.
func TestCompressedStats(t *testing.T) {
	src, _ := smallGraph(21)
	base := spillsUpdates(t, Config{Device: ssd(0), Threads: 2, IOUnit: 4 << 10, Partitions: 4})
	rawRes, err := Run(src, &wccProg{}, base)
	if err != nil {
		t.Fatal(err)
	}
	cmp := base
	cmp.Device = ssd(0)
	cmp.CompressTiles = true
	cmpRes, err := Run(src, &wccProg{}, cmp)
	if err != nil {
		t.Fatal(err)
	}
	rs, cs := rawRes.Stats, cmpRes.Stats
	if rs.BytesReadLogical != rs.BytesRead {
		t.Fatalf("raw run: logical %d != physical %d", rs.BytesReadLogical, rs.BytesRead)
	}
	if rs.TilesCompressed != 0 || rs.CompressedRatio != 0 {
		t.Fatalf("raw run reports compression: %d tiles, ratio %v", rs.TilesCompressed, rs.CompressedRatio)
	}
	if cs.BytesRead >= rs.BytesRead {
		t.Fatalf("compressed run read %d physical bytes, raw read %d", cs.BytesRead, rs.BytesRead)
	}
	if cs.BytesReadLogical != rs.BytesReadLogical {
		t.Fatalf("compressed run's logical volume %d, raw run's %d", cs.BytesReadLogical, rs.BytesReadLogical)
	}
	if cs.TilesCompressed == 0 {
		t.Fatal("compressed run block-coded no tiles")
	}
	if cs.CompressedRatio <= 0 || cs.CompressedRatio >= 1 {
		t.Fatalf("compressed ratio %v outside (0, 1)", cs.CompressedRatio)
	}
}
