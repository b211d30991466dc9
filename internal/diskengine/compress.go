package diskengine

// compress.go is how an edge file is written and read: a whole tile at a
// time, in either layout — raw records, or tiles encoded with
// internal/tilecodec (Config.CompressTiles). The write side is tileWriter,
// the pre-processing shuffle's sink: it keeps one open tile per partition,
// appends raw runs straight to the file or stages an encoded tile's records
// until the tile closes, and records every tile in the index. The read side
// is tileReader: one request per batch of whole tiles, read ahead with the
// prefetch of §3.3, every tile checked before its batch is handed out — a
// raw tile against the CRC the shuffle recorded, an encoded one inside its
// tilecodec frame — and, on a selective read, only the 64-record blocks the
// frontier reaches handed out. streamSegments drives it over a partition's
// planned segments for every scatter path — solo Run, shared-pass RunMany,
// selective range reads, the transpose build — so nothing above the reader
// knows the layout.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pod"
	"repro/internal/storage"
	"repro/internal/tilecodec"
)

// tileWriter is the pre-processing shuffle's sink: it folds each
// partition's appended runs into fixed-size tiles, with each tile's source
// span when the index keeps spans, and closes every full tile into the
// index. A raw run is appended to the file as it arrives, and its tiles'
// CRC32C kept when the index keeps checksums; an encoded tile's records are
// staged and encoded when the tile closes. It runs on the single writer
// goroutine; finish (called after the writer drains) closes each
// partition's trailing short tile.
type tileWriter struct {
	files []*partFile
	tiles *diskTiles
	open  []tileSpan    // per partition, the tile being filled
	stage [][]core.Edge // per partition, the open tile's records (encoded layout only)
	enc   tilecodec.Encoder
	buf   []byte
}

func newTileWriter(files []*partFile, tiles *diskTiles) *tileWriter {
	return &tileWriter{files: files, tiles: tiles, open: make([]tileSpan, len(files)), stage: make([][]core.Edge, len(files))}
}

// append folds one shuffled run into partition p. Record order is preserved
// exactly, so both layouts replay the same stream.
func (w *tileWriter) append(p int, run []core.Edge) error {
	t := w.tiles
	if !t.compressed {
		if err := w.files[p].appendBytes(pod.AsBytes(run)); err != nil {
			return err
		}
	}
	for len(run) > 0 {
		open := &w.open[p]
		seg := run[:min(t.tileRecs-open.recs, int64(len(run)))]
		run = run[len(seg):]
		if t.spans {
			if open.recs == 0 {
				open.span = core.NewSrcSpan(seg[0].Src)
			}
			for _, ed := range seg {
				open.span.Add(ed.Src)
			}
		}
		switch {
		case t.compressed:
			if w.stage[p] == nil {
				w.stage[p] = make([]core.Edge, 0, t.tileRecs)
			}
			w.stage[p] = append(w.stage[p], seg...)
		case t.crcs:
			open.crc = storage.ChecksumUpdate(open.crc, pod.AsBytes(seg))
		}
		open.recs += int64(len(seg))
		if open.recs == t.tileRecs {
			if err := w.closeTile(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeTile enters partition p's open tile into the index: a raw tile where
// its records were appended, an encoded one where its blob is appended now.
func (w *tileWriter) closeTile(p int) error {
	t, tile := w.tiles, w.open[p]
	w.open[p] = tileSpan{}
	tile.off, tile.bytes = t.partRecs[p]*edgeRecSize, tile.recs*edgeRecSize
	if t.compressed {
		var encoded bool
		var err error
		if w.buf, encoded, err = w.enc.Encode(w.buf[:0], w.stage[p]); err != nil {
			return err
		}
		w.stage[p] = w.stage[p][:0]
		f := w.files[p]
		tile.off, tile.bytes = f.size, int64(len(w.buf))
		if err := f.appendBytes(w.buf); err != nil {
			return err
		}
		if encoded {
			t.tilesCompressed++
		}
	}
	t.appendTile(p, tile)
	return nil
}

// finish closes every partition's trailing short tile. Call after the
// write pipeline's Finish, when no more runs will arrive.
func (w *tileWriter) finish() error {
	for p := range w.open {
		if w.open[p].recs > 0 {
			if err := w.closeTile(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// edgeScratch is the edge-read side's run-lived buffer set: the record
// double buffer, the encoded bytes of one batch (compressed layout only) and
// the tile reader lent them. A solo run, a shared pass and a backward-file
// build each own one and hand it to streamSegments, which opens one
// segment's reader over it at a time.
type edgeScratch struct {
	readScratch[core.Edge]
	raw []byte
	rd  tileReader
}

// streamSegments streams the planned segments of an edge file through fn in
// order, checking ctx between batches (nil ctx skips the check). With need
// set, only the blocks of each tile whose source span need accepts reach fn,
// and the records of the others are counted as skipped. With verify set
// every delivered tile was checked whole — its skipped blocks included —
// before fn saw any of it, and a segment whose delivered and skipped records
// fall short of its plan, a silently torn file, is corruption too. It
// returns the byte volume read, at its decoded size and checksum-verified
// (read < logical when encoded tiles decoded to more than was read; checked
// is every byte read, under verify), and the records skipped: what reached
// fn is logical/edgeRecSize − skipped records.
func streamSegments(ctx context.Context, sc *edgeScratch, pf *partFile, encoded, verify bool, segs []edgeSegment, chunkRecs int, prefetch bool, need func(core.SrcSpan) bool, fn func([]core.Edge) error) (io edgeIO, skipped int64, err error) {
	for _, seg := range segs {
		var segRecs int64
		rd := sc.openTiles(pf.f, seg.tiles, encoded, chunkRecs, prefetch, verify, need)
		for err == nil {
			var chunk []core.Edge
			if chunk, err = rd.Next(); err != nil {
				err = fmt.Errorf("diskengine: edge file %s: %w", pf.name, err)
				break
			}
			if chunk == nil {
				break
			}
			if ctx != nil {
				if err = ctx.Err(); err != nil {
					break
				}
			}
			segRecs += int64(len(chunk))
			err = fn(chunk)
		}
		io.read += rd.PhysBytes()
		rd.Close()
		io.logical += (segRecs + rd.skipped) * edgeRecSize
		skipped += rd.skipped
		if err == nil && verify && segRecs+rd.skipped != seg.hi-seg.lo {
			err = fmt.Errorf("diskengine: edge file %s: segment [%d,%d) delivered %d and skipped %d of %d records: %w",
				pf.name, seg.lo, seg.hi, segRecs, rd.skipped, seg.hi-seg.lo, storage.ErrCorrupted)
		}
		if err != nil {
			break
		}
	}
	if verify {
		io.checked = io.read
	}
	return io, skipped, err
}

// tileReader streams one planned run of tiles in batches of consecutive
// tiles with the prefetch-distance-1 discipline of §3.3: a dedicated
// goroutine reads, checks and — encoded — decodes the next batch into a
// second buffer while the caller scatters the current one. Consecutive
// tiles are physically adjacent, so one ReadAt covers each batch and the
// I/O stays sequential at the configured request size. With need set, a
// batch holds only the blocks need accepts: an encoded tile decodes only
// those, a raw batch is compacted in place once its tiles are checked.
type tileReader struct {
	sc              *edgeScratch // nil once closed
	f               storage.File
	tiles           []tileSpan
	idx             int // next tile to read
	chunkRecs       int
	capRecs         int // records the largest batch holds
	encoded, verify bool
	need            func(core.SrcSpan) bool
	phys            int64
	// skipped counts the records of the blocks need refused. The batches
	// are read on the prefetch goroutine, so it is complete, and safe to
	// read, once Close has returned.
	skipped int64
	pre     storage.Prefetcher[core.Edge]
}

// openTiles lends the scratch to a reader of one planned run of tiles of f,
// encoded or raw, delivering every block, or with need only the blocks
// whose source span it accepts. With prefetch a dedicated goroutine reads
// ahead (paying the checksum and decode CPU off the scatter threads) —
// unless the run is a single batch, which has nothing to overlap with and is
// read inline like the no-prefetch ablation. The previous reader must have
// been closed: a scratch still lent is a bug.
func (sc *edgeScratch) openTiles(f storage.File, tiles []tileSpan, encoded bool, chunkRecs int, prefetch, verify bool, need func(core.SrcSpan) bool) *tileReader {
	if !sc.busy.CompareAndSwap(false, true) {
		panic("diskengine: edge reader scratch lent twice")
	}
	// A buffer must hold the largest batch: consecutive tiles up to
	// chunkRecs records, or any single oversized tile whole.
	capRecs := chunkRecs
	for _, tl := range tiles {
		capRecs = max(capRecs, int(tl.recs))
	}
	r := &sc.rd
	*r = tileReader{sc: sc, f: f, tiles: tiles, chunkRecs: chunkRecs, capRecs: capRecs, encoded: encoded, verify: verify, need: need}
	if prefetch && len(tiles) > 0 && batchEnd(tiles, 0, chunkRecs) < len(tiles) {
		r.pre.Start(sc.buf(0, capRecs), sc.buf(1, capRecs), r.fill)
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

// readBatch reads tiles[i:j] with one request into out and checks every
// tile against the index before the batch is handed out. A raw batch is
// read straight into out, under verify each tile's records are checksummed
// against the CRC the shuffle recorded, and with need the blocks it refuses
// are then dropped. An encoded batch is read into the byte scratch and each
// tile decoded into out by tilecodec — with need, only its accepted blocks
// — which checks the frame's CRC under verify. A tile whose decoded and
// skipped records are other than the index says means a torn or corrupt
// file, never a silently wrong scatter.
func (r *tileReader) readBatch(i, j int, out []core.Edge) ([]core.Edge, int64, error) {
	tiles := r.tiles[i:j]
	off := tiles[0].off
	n := tiles[len(tiles)-1].off + tiles[len(tiles)-1].bytes - off
	if !r.encoded {
		out = out[:n/edgeRecSize]
		if err := readBytes(r.f, pod.AsBytes(out), off); err != nil {
			return nil, 0, err
		}
		if r.verify {
			recs := out
			for _, tl := range tiles {
				if sum := storage.Checksum(pod.AsBytes(recs[:tl.recs])); sum != tl.crc {
					return nil, 0, fmt.Errorf("tile at offset %d: checksum %08x, want %08x: %w", tl.off, sum, tl.crc, storage.ErrCorrupted)
				}
				recs = recs[tl.recs:]
			}
		}
		if r.need != nil {
			out = r.keepBlocks(tiles, out)
		}
		return out, n, nil
	}
	if int64(cap(r.sc.raw)) < n {
		r.sc.raw = make([]byte, n)
	}
	raw := r.sc.raw[:n]
	if err := readBytes(r.f, raw, off); err != nil {
		return nil, 0, err
	}
	out = out[:cap(out)]
	used := 0
	for _, tl := range tiles {
		recs, skipped, consumed, err := tilecodec.DecodeVerify(raw, out[used:used], r.verify, r.need)
		if err != nil {
			return nil, 0, fmt.Errorf("tile at offset %d: %w", tl.off, err)
		}
		if int64(len(recs)+skipped) != tl.recs || int64(consumed) != tl.bytes {
			return nil, 0, fmt.Errorf("tile at offset %d decodes to %d records and skips %d in %d bytes, index says %d in %d: %w",
				tl.off, len(recs), skipped, consumed, tl.recs, tl.bytes, storage.ErrCorrupted)
		}
		used += len(recs)
		r.skipped += int64(skipped)
		raw = raw[consumed:]
	}
	return out[:used], n, nil
}

// keepBlocks compacts a checked raw batch of tiles in place to the blocks
// r.need accepts, and counts the rest as skipped. A block is a run of
// tilecodec.BlockRecs records of one tile, and its span is computed from
// its records, as tilecodec does for a raw tile.
func (r *tileReader) keepBlocks(tiles []tileSpan, recs []core.Edge) []core.Edge {
	kept, pos := 0, 0
	for _, tl := range tiles {
		for end := pos + int(tl.recs); pos < end; {
			blk := recs[pos:min(pos+tilecodec.BlockRecs, end)]
			pos += len(blk)
			span := core.NewSrcSpan(blk[0].Src)
			for _, ed := range blk[1:] {
				span.Add(ed.Src)
			}
			if !r.need(span) {
				r.skipped += int64(len(blk))
				continue
			}
			kept += copy(recs[kept:], blk)
		}
	}
	return recs[:kept]
}

// fill reads the next batch of tiles into buf.
func (r *tileReader) fill(buf []core.Edge) ([]core.Edge, int64, error) {
	if r.idx >= len(r.tiles) {
		return nil, 0, nil
	}
	j := batchEnd(r.tiles, r.idx, r.chunkRecs)
	recs, phys, err := r.readBatch(r.idx, j, buf)
	if err == nil {
		r.idx = j
	}
	return recs, phys, err
}

// Next returns the next checked batch, or nil at end of stream. The
// returned slice is only valid until the following Next call.
func (r *tileReader) Next() (recs []core.Edge, err error) {
	var phys int64
	if !r.pre.Started() {
		recs, phys, err = r.fill(r.sc.buf(0, r.capRecs))
	} else {
		recs, phys, err = r.pre.Next()
	}
	r.phys += phys
	return recs, err
}

// Close stops the prefetch and only then hands the scratch back: once it
// is free the next reader may overwrite this one. Safe on every path — end
// of stream, early close, read error — and idempotent.
func (r *tileReader) Close() {
	if sc := r.sc; sc != nil {
		r.pre.Stop()
		r.sc = nil
		sc.busy.Store(false)
	}
}

// PhysBytes returns the device byte volume behind the records delivered:
// their record bytes for raw tiles, the encoded bytes for encoded ones.
func (r *tileReader) PhysBytes() int64 { return r.phys }

// readAt reads up to len(buf) bytes at off, retrying short reads, and
// returns how many it got: fewer only where the file ends.
func readAt(f storage.File, buf []byte, off int64) (int, error) {
	got := 0
	for got < len(buf) {
		n, err := f.ReadAt(buf[got:], off+int64(got))
		got += n
		if err == io.EOF || (err == nil && n == 0) {
			break
		}
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// readBytes reads exactly len(buf) bytes at off, retrying short reads.
func readBytes(f storage.File, buf []byte, off int64) error {
	got, err := readAt(f, buf, off)
	if err != nil {
		return err
	}
	if got != len(buf) {
		return fmt.Errorf("diskengine: truncated read: %d of %d bytes at offset %d: %w", got, len(buf), off, storage.ErrCorrupted)
	}
	return nil
}
