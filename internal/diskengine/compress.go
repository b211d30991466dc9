package diskengine

// compress.go is the compressed edge-tile layout (Config.CompressTiles).
// The write side is a bucketWriter sink that encodes whole tiles with
// internal/tilecodec during the pre-processing shuffle; the read side is a
// tileReader that decodes batches of tiles with the same prefetch
// discipline as chunkReader. Both hide behind the edgeStream interface and
// the streamSegments driver, so every scatter path — solo Run, shared-pass
// RunMany, selective range reads, the backward-file rebuild — is untouched
// above the reader.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/tilecodec"
)

// tileCompressor is the shuffle sink of the compressed layout: it
// accumulates each partition's appended runs into fixed-size tiles,
// encodes every full tile and appends the encoded blob to the partition
// file, recording the tile's source span and physical placement in the
// index. It replaces both the bucketWriter's raw append and the diskTiles
// observer, and runs on the single writer goroutine; finish (called after
// the writer drains) flushes each partition's trailing short tile.
type tileCompressor struct {
	files    []*partFile
	tiles    *diskTiles
	tileRecs int
	pending  [][]core.Edge
	enc      tilecodec.Encoder
	buf      []byte
}

func newTileCompressor(files []*partFile, tiles *diskTiles) *tileCompressor {
	return &tileCompressor{
		files:    files,
		tiles:    tiles,
		tileRecs: int(tiles.tileRecs),
		pending:  make([][]core.Edge, len(files)),
	}
}

// append folds one shuffled run into partition p, encoding tiles as they
// fill. Record order is preserved exactly, so a decoded file replays the
// same stream the raw layout would have.
func (c *tileCompressor) append(p int, run []core.Edge) error {
	pend := c.pending[p]
	for len(run) > 0 {
		if cap(pend) == 0 {
			pend = make([]core.Edge, 0, c.tileRecs)
		}
		take := c.tileRecs - len(pend)
		if take > len(run) {
			take = len(run)
		}
		pend = append(pend, run[:take]...)
		run = run[take:]
		if len(pend) == c.tileRecs {
			if err := c.flushTile(p, pend); err != nil {
				c.pending[p] = pend[:0]
				return err
			}
			pend = pend[:0]
		}
	}
	c.pending[p] = pend
	return nil
}

func (c *tileCompressor) flushTile(p int, edges []core.Edge) error {
	var compressed bool
	var err error
	c.buf, compressed, err = c.enc.Encode(c.buf[:0], edges)
	if err != nil {
		return err
	}
	f := c.files[p]
	off := f.size
	if err := f.appendBytes(c.buf); err != nil {
		return err
	}
	span := core.NewSrcSpan(edges[0].Src)
	for _, ed := range edges[1:] {
		span.Add(ed.Src)
	}
	t := c.tiles
	t.parts[p] = append(t.parts[p], tileSpan{
		recs: int64(len(edges)), span: span, off: off, bytes: int64(len(c.buf)),
	})
	t.logicalBytes += int64(len(edges)) * edgeRecSize
	t.physBytes += int64(len(c.buf))
	if compressed {
		t.tilesCompressed++
	}
	return nil
}

// finish encodes every partition's trailing short tile. Call after the
// bucketWriter's Finish, when no more runs will arrive.
func (c *tileCompressor) finish() error {
	for p, pend := range c.pending {
		if len(pend) > 0 {
			if err := c.flushTile(p, pend); err != nil {
				return err
			}
			c.pending[p] = pend[:0]
		}
	}
	return nil
}

// edgeStream is the chunked record stream the scatter paths consume — a
// raw chunkReader or a decoding tileReader behind one contract. PhysBytes
// is the device byte volume behind the records delivered so far: equal to
// the record bytes for the raw layout, smaller for compressed tiles.
type edgeStream interface {
	Next() ([]core.Edge, error)
	Close()
	PhysBytes() int64
}

// edgeScratch is the edge-read side's run-lived buffer set: the record
// double buffer and raw reader of readScratch plus what only the compressed
// layout needs, the encoded-byte scratch and the tile reader. A solo run, a
// shared pass and a backward-file build each own one and hand it to
// streamSegments, which opens one segment's reader over it at a time.
type edgeScratch struct {
	readScratch[core.Edge]
	raw  []byte // encoded bytes of one tile batch
	tile tileReader
}

// openSegment opens the stream for one planned segment of an edge file over
// sc's buffers. verify only matters for compressed segments, whose
// tilecodec frames are checksum-checked as they decode; raw segments are
// verified above the reader by streamSegments' rawTileVerifier. The
// previous segment's reader must have been closed: a scratch still lent is
// a bug.
func (sc *edgeScratch) openSegment(f storage.File, seg edgeSegment, chunkRecs int, prefetch, verify bool) edgeStream {
	if seg.tiles != nil {
		if rd := sc.openTiles(f, seg.tiles, chunkRecs, prefetch, verify); rd != nil {
			return rd
		}
	} else if rd := sc.openChunks(f, seg.lo*edgeRecSize, seg.hi*edgeRecSize, chunkRecs, prefetch); rd != nil {
		return rd
	}
	panic("diskengine: edge reader scratch lent twice")
}

// rawTileVerifier re-checksums a raw edge file's streamed records against
// the per-tile CRCs the pre-processing shuffle recorded. Segments planned
// from the tile index always start on tile boundaries, so the verifier
// tracks which tile each delivered record falls in and compares at every
// tile edge — corruption in a tile surfaces before more than one tile's
// worth of records past it has been scattered, and always before the run
// can return results.
type rawTileVerifier struct {
	name     string
	tiles    []tileSpan
	tileRecs int64
	idx      int   // tile the next record falls in
	within   int64 // records of tiles[idx] already fed
	crc      uint32
	checked  int64 // record bytes verified so far
}

// newRawTileVerifier returns a verifier for partition p of a raw layout,
// or nil when the index cannot vouch for the file (the whole-file safety
// net of activeSegments, where index and file disagree on the record
// count — planSegments then streams the whole file unverified).
func newRawTileVerifier(pf *partFile, t *diskTiles, p int) *rawTileVerifier {
	if t == nil || t.compressed || t.tileRecs <= 0 {
		return nil
	}
	if t.totalRecs(p)*edgeRecSize != pf.size {
		return nil
	}
	return &rawTileVerifier{name: pf.name, tiles: t.parts[p], tileRecs: t.tileRecs}
}

// startSegment positions the verifier at the tile containing record lo.
// Raw tiles are fixed-size except the trailing one, so the tile index is
// lo/tileRecs; a misaligned segment (never planned, defended anyway)
// reports false and the caller streams it unverified.
func (v *rawTileVerifier) startSegment(lo int64) bool {
	if lo%v.tileRecs != 0 {
		return false
	}
	idx := int(lo / v.tileRecs)
	if idx > len(v.tiles) {
		return false
	}
	v.idx, v.within, v.crc = idx, 0, 0
	return true
}

// feed folds one delivered chunk into the running per-tile checksums.
func (v *rawTileVerifier) feed(chunk []core.Edge) error {
	for len(chunk) > 0 {
		if v.idx >= len(v.tiles) {
			return fmt.Errorf("diskengine: edge file %s: records past the tile index: %w", v.name, storage.ErrCorrupted)
		}
		tl := &v.tiles[v.idx]
		take := tl.recs - v.within
		if take > int64(len(chunk)) {
			take = int64(len(chunk))
		}
		seg := chunk[:take]
		v.crc = storage.ChecksumUpdate(v.crc, pod.AsBytes(seg))
		v.within += take
		chunk = chunk[take:]
		if v.within == tl.recs {
			v.checked += tl.recs * edgeRecSize
			if v.crc != tl.crc {
				return fmt.Errorf("diskengine: edge file %s: tile %d checksum %08x, want %08x: %w",
					v.name, v.idx, v.crc, tl.crc, storage.ErrCorrupted)
			}
			v.idx++
			v.within, v.crc = 0, 0
		}
	}
	return nil
}

// streamSegments streams the planned segments of partition p's edge file
// through fn in order, checking ctx between chunks (nil ctx skips the
// check). With verify set, every delivered record is covered by a CRC32C
// comparison: raw tiles against the shuffle-recorded index (or, for an
// unindexed file streamed whole, against the file's running append
// checksum), compressed tiles inside the tilecodec frames; a segment that
// delivers fewer records than planned — a silently torn file — is also
// corruption. It returns the physical and logical byte volume delivered
// (equal for the raw layout, phys < logical when tiles decoded to more
// than was read) plus the byte volume checksum-verified.
func streamSegments(ctx context.Context, sc *edgeScratch, pf *partFile, p int, tiles *diskTiles, verify bool, segs []edgeSegment, chunkRecs int, prefetch bool, fn func([]core.Edge) error) (phys, logical, checked int64, err error) {
	var ver *rawTileVerifier
	if verify {
		ver = newRawTileVerifier(pf, tiles, p)
	}
	// An unindexed raw file is always planned as one whole-file segment:
	// verify its stream against the file's running append checksum.
	var wholeCRC uint32
	wholeOK := verify && ver == nil && tiles == nil &&
		len(segs) == 1 && segs[0].lo == 0 && segs[0].hi*edgeRecSize == pf.size
	for _, seg := range segs {
		verSeg := ver != nil && ver.startSegment(seg.lo)
		var segRecs int64
		rd := sc.openSegment(pf.f, seg, chunkRecs, prefetch, verify)
		for err == nil {
			var chunk []core.Edge
			chunk, err = rd.Next()
			if err != nil || chunk == nil {
				break
			}
			if ctx != nil {
				if err = ctx.Err(); err != nil {
					break
				}
			}
			logical += int64(len(chunk)) * edgeRecSize
			segRecs += int64(len(chunk))
			if verSeg {
				if err = ver.feed(chunk); err != nil {
					break
				}
			} else if wholeOK {
				wholeCRC = storage.ChecksumUpdate(wholeCRC, pod.AsBytes(chunk))
			}
			err = fn(chunk)
		}
		phys += rd.PhysBytes()
		rd.Close()
		if err == nil && verify && segRecs != seg.hi-seg.lo {
			err = fmt.Errorf("diskengine: edge file %s: segment [%d,%d) delivered %d of %d records: %w",
				pf.name, seg.lo, seg.hi, segRecs, seg.hi-seg.lo, storage.ErrCorrupted)
		}
		if err != nil {
			if ver != nil {
				checked = ver.checked
			}
			return phys, logical, checked, err
		}
	}
	switch {
	case ver != nil:
		checked = ver.checked
	case wholeOK:
		checked = pf.size
		if wholeCRC != pf.crc {
			return phys, logical, checked, fmt.Errorf("diskengine: edge file %s: stream checksum %08x, want %08x: %w",
				pf.name, wholeCRC, pf.crc, storage.ErrCorrupted)
		}
	case verify && tiles != nil && tiles.compressed:
		// Compressed tiles verify inside the codec frames; the bytes the
		// device actually moved are what the CRCs covered.
		checked = phys
	}
	return phys, logical, checked, nil
}

// tileReader streams one planned run of encoded tiles, decoding batches of
// consecutive tiles into edge records with the same prefetch-distance-1
// discipline as chunkReader: a dedicated goroutine reads and decodes the
// next batch into a second buffer while the caller scatters the current
// one. Consecutive tiles are physically adjacent, so one ReadAt covers
// each batch and the I/O stays sequential at the configured request size.
type tileReader struct {
	sc        *edgeScratch // nil once closed
	f         storage.File
	tiles     []tileSpan
	idx       int // next tile to decode
	chunkRecs int
	capRecs   int // records the largest batch decodes to
	verify    bool
	phys      int64
	prefetcher[core.Edge]
}

// openTiles lends the scratch to a reader decoding one planned run of
// encoded tiles of f. With prefetch a dedicated goroutine reads and decodes
// ahead (paying the decode CPU off the scatter threads) — unless the run is
// a single batch, which has nothing to overlap with and is decoded inline
// like the no-prefetch ablation. It returns nil when the scratch is still
// lent to another reader.
func (sc *edgeScratch) openTiles(f storage.File, tiles []tileSpan, chunkRecs int, prefetch, verify bool) *tileReader {
	if !sc.busy.CompareAndSwap(false, true) {
		return nil
	}
	// A decode buffer must hold the largest batch: consecutive tiles up to
	// chunkRecs records, or any single oversized tile whole.
	capRecs := chunkRecs
	for _, tl := range tiles {
		if tl.recs > int64(capRecs) {
			capRecs = int(tl.recs)
		}
	}
	r := &sc.tile
	*r = tileReader{sc: sc, f: f, tiles: tiles, chunkRecs: chunkRecs, capRecs: capRecs, verify: verify}
	if prefetch && len(tiles) > 0 && batchEnd(tiles, 0, chunkRecs) < len(tiles) {
		r.start(sc.buf(0, capRecs), sc.buf(1, capRecs), r.fill)
	}
	return r
}

// batchEnd returns the end of the tile batch starting at i: at least one
// tile, extended while the batch stays within chunkRecs records.
func batchEnd(tiles []tileSpan, i, chunkRecs int) int {
	recs := tiles[i].recs
	j := i + 1
	for j < len(tiles) && recs+tiles[j].recs <= int64(chunkRecs) {
		recs += tiles[j].recs
		j++
	}
	return j
}

// decodeBatch reads tiles[i:j] with one request and decodes them into out,
// cross-checking every tile against the index — a decode that disagrees
// with the span the shuffle recorded means a torn or corrupt file, never a
// silently wrong scatter.
func (r *tileReader) decodeBatch(i, j int, out []core.Edge) ([]core.Edge, int64, error) {
	off := r.tiles[i].off
	n := r.tiles[j-1].off + r.tiles[j-1].bytes - off
	if int64(cap(r.sc.raw)) < n {
		r.sc.raw = make([]byte, n)
	}
	raw := r.sc.raw[:n]
	if err := readBytes(r.f, raw, off); err != nil {
		return nil, 0, err
	}
	out = out[:cap(out)]
	used := 0
	for _, tl := range r.tiles[i:j] {
		recs, consumed, err := tilecodec.DecodeVerify(raw, out[used:used], r.verify)
		if err != nil {
			return nil, 0, fmt.Errorf("diskengine: tile at offset %d: %w", off, err)
		}
		if int64(len(recs)) != tl.recs || int64(consumed) != tl.bytes {
			return nil, 0, fmt.Errorf("diskengine: tile at offset %d decodes to %d records in %d bytes, index says %d in %d: %w",
				off, len(recs), consumed, tl.recs, tl.bytes, storage.ErrCorrupted)
		}
		used += len(recs)
		raw = raw[consumed:]
		off += int64(consumed)
	}
	return out[:used], n, nil
}

// fill decodes the next batch of tiles into buf.
func (r *tileReader) fill(buf []core.Edge) ([]core.Edge, int64, error) {
	if r.idx >= len(r.tiles) {
		return nil, 0, nil
	}
	j := batchEnd(r.tiles, r.idx, r.chunkRecs)
	recs, phys, err := r.decodeBatch(r.idx, j, buf)
	if err == nil {
		r.idx = j
	}
	return recs, phys, err
}

// Next returns the next decoded batch, or nil at end of stream. The
// returned slice is only valid until the following Next call.
func (r *tileReader) Next() (recs []core.Edge, err error) {
	var phys int64
	if r.ready == nil {
		recs, phys, err = r.fill(r.sc.buf(0, r.capRecs))
	} else {
		recs, phys, err = r.next()
	}
	r.phys += phys
	return recs, err
}

// Close stops the prefetch and hands the scratch back (see
// chunkReader.Close).
func (r *tileReader) Close() {
	if sc := r.sc; sc != nil {
		r.stop()
		r.sc = nil
		sc.busy.Store(false)
	}
}

// PhysBytes returns the encoded byte volume behind the records delivered.
func (r *tileReader) PhysBytes() int64 { return r.phys }

// readBytes reads exactly len(buf) bytes at off, retrying short reads.
func readBytes(f storage.File, buf []byte, off int64) error {
	got := 0
	for got < len(buf) {
		n, err := f.ReadAt(buf[got:], off+int64(got))
		got += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	if got != len(buf) {
		return fmt.Errorf("diskengine: truncated tile read: %d of %d bytes at offset %d: %w", got, len(buf), off, storage.ErrCorrupted)
	}
	return nil
}
