package diskengine

import (
	"repro/internal/core"
	"repro/internal/pod"
)

// tileSpan is one edge-file tile: a fixed-size run of records (the last
// tile of a partition may be short) and where it sits in the file, 40 bytes.
// Its core.SrcSpan source summary is kept apart, in diskTiles.spans, and
// only for a handle that runs selectively; a tile is skippable in an
// iteration exactly when its span misses the frontier — with a
// locality-aware partitioner packing communities into contiguous ID ranges,
// spans are narrow and skips frequent. Within a tile that is read, a block
// of tilecodec.BlockRecs records is skipped when its span misses every
// needing run's frontier: an encoded tile carries its block spans in its
// tilecodec directory, a raw tile's are computed from its records once it
// is read and checked.
type tileSpan struct {
	lo   int64 // the tile's first record in its partition's file, set by appendTile
	recs int64
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
	// spans holds, per partition, each tile's source span — spans[p][i]
	// is tile i of parts[p]'s — and is nil but on a selective handle
	// (Config.Selective). The tileWriter records them; the word→tile index
	// keeps these very slices, so a span is held once.
	spans [][]core.SrcSpan
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
	t := &diskTiles{
		tileRecs:   int64(cfg.TileEdges),
		compressed: cfg.CompressTiles,
		crcs:       !cfg.NoVerify,
		parts:      make([][]tileSpan, k),
		partRecs:   make([]int64, k),
	}
	if cfg.Selective {
		t.spans = make([][]core.SrcSpan, k)
	}
	return t
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
// on first use over the spans the tiles keep. The caller serialises calls
// (Prepared.files holds pp.mu).
func (t *diskTiles) tileIndex() *core.TileIndex {
	if t.index == nil {
		t.index = core.NewTileIndex(t.spans)
	}
	return t.index
}

// bytes returns the index's resident size: its tiles, and its spans, once,
// with the word→tile index over them when built.
func (t *diskTiles) bytes() int64 {
	var n int64
	for _, tiles := range t.parts {
		n += int64(len(tiles)) * int64(pod.Size[tileSpan]())
	}
	if t.index != nil {
		return n + t.index.Bytes()
	}
	for _, spans := range t.spans {
		n += int64(len(spans)) * int64(pod.Size[core.SrcSpan]())
	}
	return n
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
