package diskengine

import (
	"repro/internal/core"
)

// tileSpan is one edge-file tile: a fixed-size run of records (the last
// tile of a partition may be short), where it sits in the file and its
// core.SrcSpan source summary. The span is recorded only for a handle that
// runs selectively (diskTiles.spans); a tile is skippable in an iteration
// exactly when its span misses the frontier — with a locality-aware
// partitioner packing communities into contiguous ID ranges, spans are
// narrow and skips frequent. Within a tile that is read, a block of
// tilecodec.BlockRecs records is skipped when its span misses every needing
// run's frontier: an encoded tile carries its block spans in its tilecodec
// directory, a raw tile's are computed from its records once it is read and
// checked.
type tileSpan struct {
	lo   int64 // the tile's first record in its partition's file, set by appendTile
	recs int64
	span core.SrcSpan
	// off and bytes place the tile in its edge file: lo·12 and recs·12 for
	// a raw tile, wherever its encoded blob was appended for an encoded one.
	off, bytes int64
	// crc is the CRC32C of a raw tile's record bytes, recorded as the
	// shuffle writes them on a verifying handle (diskTiles.crcs) and checked
	// by every read of the tile; an encoded tile carries its checksum in its
	// tilecodec frame and leaves this zero.
	crc uint32
}

// diskTiles is the per-partition tile index of a set of edge files. Every
// set of edge files has one, built *during* the pre-processing edge
// shuffle by its tileWriter, in exactly file-append order, so tile i of
// partition p always describes records [i*tileRecs, ...) of edge file p. It
// is authoritative for reading the files: every read is planned from it as
// a run of whole tiles and checked against them. It is read-only once the
// shuffle is done.
type diskTiles struct {
	tileRecs int64
	// compressed marks the tilecodec on-disk layout: each tile is encoded
	// when it closes, a variable-size blob, rather than its raw records.
	compressed bool
	// spans marks the tile index of a selective handle (Config.Selective):
	// only then does the shuffle record each tile's source span, which only
	// tileIndex reads, for that handle's selective runs.
	spans bool
	// crcs marks the tile index of a verifying handle (not Config.NoVerify):
	// only then does the shuffle checksum each raw tile.
	crcs     bool
	parts    [][]tileSpan
	partRecs []int64 // per-partition record total of parts, kept by appendTile
	// index is the word→tile index of the finished tiles, built by
	// tileIndex the first time a selective run streams the files.
	index *core.TileIndex
	// Layout accounting, kept by appendTile: block-coded tile count, and
	// the logical (record) vs physical (file) byte volume of the tiles.
	tilesCompressed int64
	logicalBytes    int64
	physBytes       int64
}

// newDiskTiles returns the tile index of k edge files written under cfg:
// cfg.TileEdges records a tile, in the layout cfg.CompressTiles picks, with
// source spans on a Selective handle and raw-tile checksums unless NoVerify.
func newDiskTiles(k int, cfg Config) *diskTiles {
	return &diskTiles{
		tileRecs:   int64(cfg.TileEdges),
		compressed: cfg.CompressTiles,
		spans:      cfg.Selective,
		crcs:       !cfg.NoVerify,
		parts:      make([][]tileSpan, k),
		partRecs:   make([]int64, k),
	}
}

// totalRecs returns the logical record count of partition p's edge file:
// the index, not the file size, is the source of truth.
func (t *diskTiles) totalRecs(p int) int64 { return t.partRecs[p] }

// appendTile closes tile as the next tile of partition p. Every tile enters
// the index here, so the per-partition totals, the tiles' record offsets and
// the layout accounting stay in step with it.
func (t *diskTiles) appendTile(p int, tile tileSpan) {
	tile.lo = t.partRecs[p]
	t.parts[p] = append(t.parts[p], tile)
	t.partRecs[p] += tile.recs
	t.logicalBytes += tile.recs * edgeRecSize
	t.physBytes += tile.bytes
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

// edgeSegment is one contiguous read of an edge file: a run of consecutive
// tiles, which tileReader reads and checks tile by tile, and the logical
// record range [lo, hi) they hold.
type edgeSegment struct {
	lo, hi int64
	tiles  []tileSpan
}

// segment returns the read of partition p's tiles first up to end — a run
// of core.PartitionPlan.Runs.
func (t *diskTiles) segment(p, first, end int) edgeSegment {
	tiles := t.parts[p][first:end]
	last := tiles[len(tiles)-1]
	return edgeSegment{lo: tiles[0].lo, hi: last.lo + last.recs, tiles: tiles}
}

// whole returns the read of all of partition p's edge file: one segment,
// none for an empty file.
func (t *diskTiles) whole(p int) []edgeSegment {
	if len(t.parts[p]) == 0 {
		return nil
	}
	return []edgeSegment{t.segment(p, 0, len(t.parts[p]))}
}
