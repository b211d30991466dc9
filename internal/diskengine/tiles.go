package diskengine

import (
	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// tileSpan is one edge-file tile: a fixed-size run of records (the last
// tile of a partition may be short) and its core.SrcSpan source summary.
// The span is recorded only for a handle that runs selectively
// (diskTiles.spans); a tile is skippable in an iteration exactly when its
// span misses the frontier — with a locality-aware partitioner packing
// communities into contiguous ID ranges, spans are narrow and skips
// frequent.
type tileSpan struct {
	lo   int64 // the tile's first record in its partition's file, set by appendTile
	recs int64
	span core.SrcSpan
	// Physical placement of the encoded tile in its edge file. Raw-layout
	// tiles sit implicitly at their record-prefix × record size, so both
	// stay zero; the compressed layout needs them because encoded tiles
	// are variable-size.
	off, bytes int64
	// crc is the CRC32C of the tile's raw record bytes, recorded as the
	// shuffle writes them. The raw read path verifies each streamed tile
	// against it; compressed tiles carry their checksum in the tilecodec
	// frame instead and leave this zero.
	crc uint32
}

// diskTiles is the per-partition tile index of a set of edge files. Every
// set of edge files has one, built *during* the pre-processing edge
// shuffle: the write pipeline's sink hands it every run in exactly
// file-append order, so tile i of partition p always describes records
// [i*tileRecs, ...) of edge file p. It is authoritative for reading the
// files: every read is planned from it as a run of whole tiles and checked
// against them. observe runs on the single writer goroutine; the index is
// read-only afterwards.
type diskTiles struct {
	tileRecs int64
	// compressed marks the tilecodec on-disk layout: tiles are variable-
	// size encoded blobs at (off, bytes) rather than fixed runs of raw
	// records, and the index is maintained by the shuffle's tileCompressor
	// sink instead of observe.
	compressed bool
	// spans marks the tile index of a selective handle (Config.Selective):
	// only then does the shuffle record each tile's source span, which only
	// tileIndex reads, for that handle's selective runs.
	spans    bool
	parts    [][]tileSpan
	partRecs []int64    // per-partition record total of parts, kept by appendTile
	open     []tileSpan // per-partition tile still being filled
	// index is the word→tile index of the finished tiles, built by
	// tileIndex the first time a selective run streams the files.
	index *core.TileIndex
	// Codec accounting, filled during the shuffle alongside the index:
	// delta-encoded tile count, and the logical (decoded) vs physical
	// (encoded) byte volume of the layout as written.
	tilesCompressed int64
	logicalBytes    int64
	physBytes       int64
}

// newDiskTiles returns a tile index for the raw or compressed layout, with
// the tiles' source spans when spans is set.
func newDiskTiles(k, tileRecs int, compressed, spans bool) *diskTiles {
	return &diskTiles{
		tileRecs:   int64(tileRecs),
		compressed: compressed,
		spans:      spans,
		parts:      make([][]tileSpan, k),
		partRecs:   make([]int64, k),
		open:       make([]tileSpan, k),
	}
}

// totalRecs returns the logical record count of partition p's edge file:
// the index, not the file size, is the source of truth.
func (t *diskTiles) totalRecs(p int) int64 { return t.partRecs[p] }

// appendTile closes tile as the next tile of partition p. Every tile enters
// the index here, so the per-partition totals and the tiles' record offsets
// stay in step with it.
func (t *diskTiles) appendTile(p int, tile tileSpan) {
	tile.lo = t.partRecs[p]
	t.parts[p] = append(t.parts[p], tile)
	t.partRecs[p] += tile.recs
}

// observe folds one appended run into partition p's tiles, accumulating
// each tile's record-byte checksum, and its source span when the index keeps
// spans, in tile-sized steps.
func (t *diskTiles) observe(p int, run []core.Edge) {
	open := &t.open[p]
	for len(run) > 0 {
		take := t.tileRecs - open.recs
		if take > int64(len(run)) {
			take = int64(len(run))
		}
		seg := run[:take]
		if t.spans {
			if open.recs == 0 {
				open.span = core.NewSrcSpan(seg[0].Src)
			}
			for _, ed := range seg {
				open.span.Add(ed.Src)
			}
		}
		open.crc = storage.ChecksumUpdate(open.crc, pod.AsBytes(seg))
		open.recs += take
		run = run[take:]
		if open.recs == t.tileRecs {
			t.appendTile(p, *open)
			open.recs, open.crc = 0, 0
		}
	}
}

// finish closes every partition's trailing short tile. Call after the
// write pipeline's Finish, when no more runs will be observed.
func (t *diskTiles) finish() {
	for p := range t.open {
		if t.open[p].recs > 0 {
			t.appendTile(p, t.open[p])
			t.open[p].recs, t.open[p].crc = 0, 0
		}
	}
}

// tileIndex returns the word→tile index of the finished tiles, building it
// on first use; the tiles must keep spans. The caller serialises calls
// (Prepared.files holds pp.mu).
func (t *diskTiles) tileIndex() *core.TileIndex {
	if t.index == nil {
		spans := make([][]core.SrcSpan, len(t.parts))
		for p, tiles := range t.parts {
			spans[p] = make([]core.SrcSpan, len(tiles))
			for i, tile := range tiles {
				spans[p][i] = tile.span
			}
		}
		t.index = core.NewTileIndex(spans)
	}
	return t.index
}

// edgeSegment is one contiguous read of an edge file as planned by
// planSegments: a logical record range [lo, hi) and the run of tiles covering
// it, against which every record read is checked — raw records at lo × record
// size by their tiles' checksums, encoded tiles by their tilecodec frames.
type edgeSegment struct {
	lo, hi int64
	tiles  []tileSpan
}

// planSegments plans the streaming of partition p's edge file into dst's
// storage: every tile unless tiled, else the tiles needed lists — tile ids
// of t's partition p, ascending (core.PartitionPlan.NeededTiles) — with runs
// of consecutive ids coalesced into one segment each, and the records and
// tiles of the others skipped.
func planSegments(t *diskTiles, p int, tiled bool, needed []int32, dst []edgeSegment) (segs []edgeSegment, skippedRecs, skippedTiles int64) {
	segs = dst[:0]
	tiles := t.parts[p]
	if !tiled {
		if len(tiles) == 0 {
			return segs, 0, 0
		}
		return append(segs, edgeSegment{lo: 0, hi: t.totalRecs(p), tiles: tiles}), 0, 0
	}
	streamed := int64(0)
	for i := 0; i < len(needed); {
		j := i + 1
		for j < len(needed) && needed[j] == needed[j-1]+1 {
			j++
		}
		first, last := tiles[needed[i]], tiles[needed[j-1]]
		seg := edgeSegment{lo: first.lo, hi: last.lo + last.recs, tiles: tiles[needed[i] : needed[j-1]+1]}
		segs = append(segs, seg)
		streamed += seg.hi - seg.lo
		i = j
	}
	return segs, t.totalRecs(p) - streamed, int64(len(tiles) - len(needed))
}
