package diskengine

import (
	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
)

// tileSpan is one edge-file tile: a fixed-size run of records (the last
// tile of a partition may be short) and its core.SrcSpan source summary.
// A tile is skippable in an iteration exactly when its span misses the
// frontier — with a locality-aware partitioner packing communities into
// contiguous ID ranges, spans are narrow and skips frequent.
type tileSpan struct {
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

// diskTiles is the per-partition tile index of a set of edge files. It is
// built *during* the pre-processing edge shuffle: the write pipeline's
// sink hands it every run in exactly file-append order, so tile i of
// partition p always describes records [i*tileRecs, ...) of edge file p.
// observe runs on the single writer goroutine; the index is read-only
// afterwards.
type diskTiles struct {
	tileRecs int64
	// compressed marks the tilecodec on-disk layout: tiles are variable-
	// size encoded blobs at (off, bytes) rather than fixed runs of raw
	// records, the index is maintained by the shuffle's tileCompressor
	// sink instead of observe, and it is authoritative for reading the
	// files at all — a compressed file cannot be streamed without it.
	compressed bool
	parts      [][]tileSpan
	partRecs   []int64    // per-partition record total of parts, kept by appendTile
	open       []tileSpan // per-partition tile still being filled
	// Codec accounting, filled during the shuffle alongside the index:
	// delta-encoded tile count, and the logical (decoded) vs physical
	// (encoded) byte volume of the layout as written.
	tilesCompressed int64
	logicalBytes    int64
	physBytes       int64
}

// newDiskTiles returns a tile index for the raw or compressed layout.
func newDiskTiles(k, tileRecs int, compressed bool) *diskTiles {
	return &diskTiles{
		tileRecs:   int64(tileRecs),
		compressed: compressed,
		parts:      make([][]tileSpan, k),
		partRecs:   make([]int64, k),
		open:       make([]tileSpan, k),
	}
}

// totalRecs returns the logical record count of partition p's edge file —
// for the compressed layout the file size says nothing about it, the
// index is the source of truth.
func (t *diskTiles) totalRecs(p int) int64 { return t.partRecs[p] }

// appendTile closes tile as the next tile of partition p. Every tile enters
// the index here, so the per-partition totals stay in step with it.
func (t *diskTiles) appendTile(p int, tile tileSpan) {
	t.parts[p] = append(t.parts[p], tile)
	t.partRecs[p] += tile.recs
}

// observe folds one appended run into partition p's tiles, accumulating
// each tile's source span and record-byte checksum in tile-sized steps.
func (t *diskTiles) observe(p int, run []core.Edge) {
	open := &t.open[p]
	for len(run) > 0 {
		take := t.tileRecs - open.recs
		if take > int64(len(run)) {
			take = int64(len(run))
		}
		seg := run[:take]
		if open.recs == 0 {
			open.span = core.NewSrcSpan(seg[0].Src)
		}
		for _, ed := range seg {
			open.span.Add(ed.Src)
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

// recRange is a contiguous record range [lo, hi) of one edge file.
type recRange struct {
	lo, hi int64
}

// activeSegmentsFunc walks partition p's tiles against the tile predicate
// need — shared-pass execution streams a tile when *any* co-scheduled job's
// frontier needs it, so need is a union over jobs — and returns the
// coalesced record ranges that must be streamed, plus the number of records
// and tiles skipped. wantRecs is the file's actual record count: if the
// index does not cover it exactly (it always should; this is a safety net,
// not an expected path) the whole file is returned as one segment and
// nothing is skipped.
func (t *diskTiles) activeSegmentsFunc(p int, need func(core.SrcSpan) bool, wantRecs int64) (segs []recRange, skippedRecs, skippedTiles int64) {
	if t.totalRecs(p) != wantRecs {
		return []recRange{{0, wantRecs}}, 0, 0
	}
	off := int64(0)
	for _, tile := range t.parts[p] {
		if need(tile.span) {
			if n := len(segs); n > 0 && segs[n-1].hi == off {
				segs[n-1].hi = off + tile.recs
			} else {
				segs = append(segs, recRange{off, off + tile.recs})
			}
		} else {
			skippedRecs += tile.recs
			skippedTiles++
		}
		off += tile.recs
	}
	return segs, skippedRecs, skippedTiles
}

// edgeSegment is one contiguous read of an edge file as planned by
// planSegments: a logical record range [lo, hi) plus — in the compressed
// layout — the run of encoded tiles covering it. nil tiles means raw
// records at lo × record size.
type edgeSegment struct {
	lo, hi int64
	tiles  []tileSpan
}

// planSegments plans the streaming of partition p's edge file: the whole
// file when need is nil, else only the coalesced runs whose tile source
// spans satisfy need. fileRecs is the file's logical record count (see
// edgeFileRecs). The skip counts are zero when need is nil. It is the one
// place both layouts' read planning meets: the raw path delegates to
// activeSegmentsFunc (keeping its whole-file safety net), the compressed
// path walks its authoritative index directly. Either way need is asked
// once per tile.
func planSegments(t *diskTiles, p int, need func(core.SrcSpan) bool, fileRecs int64) (segs []edgeSegment, skippedRecs, skippedTiles int64) {
	if t == nil || (need == nil && !t.compressed) {
		if fileRecs == 0 {
			return nil, 0, 0
		}
		return []edgeSegment{{lo: 0, hi: fileRecs}}, 0, 0
	}
	if !t.compressed {
		rr, sr, st := t.activeSegmentsFunc(p, need, fileRecs)
		for _, r := range rr {
			segs = append(segs, edgeSegment{lo: r.lo, hi: r.hi})
		}
		return segs, sr, st
	}
	tiles := t.parts[p]
	first, lo, off := -1, int64(0), int64(0) // first tile and record of the open run; -1: none
	for i, tile := range tiles {
		if need == nil || need(tile.span) {
			if first < 0 {
				first, lo = i, off
			}
		} else {
			if first >= 0 {
				segs = append(segs, edgeSegment{lo: lo, hi: off, tiles: tiles[first:i]})
				first = -1
			}
			skippedRecs += tile.recs
			skippedTiles++
		}
		off += tile.recs
	}
	if first >= 0 {
		segs = append(segs, edgeSegment{lo: lo, hi: off, tiles: tiles[first:]})
	}
	return segs, skippedRecs, skippedTiles
}

// edgeFileRecs returns the logical record count of partition p's edge
// file: the byte size over the record size for the raw layout, the tile
// index's total for the compressed one.
func edgeFileRecs(f *partFile, tiles *diskTiles, p int) int64 {
	if tiles != nil && tiles.compressed {
		return tiles.totalRecs(p)
	}
	return f.size / edgeRecSize
}
