// Package tilecodec implements the compressed on-disk edge-tile format of
// the out-of-core engine. X-Stream's design bet is that graph processing is
// bound by streaming bandwidth, not seeks (paper §5): every byte shaved off
// the edge stream is a direct speedup on every out-of-core iteration, so the
// partition edge files written by the pre-processing shuffle can trade a
// little decode CPU for fewer physical bytes on the device.
//
// One tile encodes one fixed-size run of edge records (the unit the
// selective-streaming index already summarizes with a [min,max] source
// span). The wire format is
//
//	[1 byte flags][uvarint n][uvarint payloadLen][payload][crc32c]
//
// where the trailing 4-byte little-endian CRC32C of the whole payload is
// always present and the FlagCRC bit marks it (the encoder always sets it; a
// tile without it is an error), and the low flag bits select the payload
// encoding:
//
//   - FlagBlocks: the records in blocks of BlockRecs (the last block may be
//     short), block-major. First a 1-byte weight mode followed by one
//     float32 when every weight in the tile is bit-identical; then the
//     block directory, a uvarint byte length and one entry per block — the
//     block's source span [lo, hi] as a signed-varint delta of lo from the
//     previous block's lo (zigzag, wrapping uint32 arithmetic, the first
//     from 0) and a uvarint hi−lo, then a uvarint end offset of the block's
//     bytes, counted from the first block's start; then every block's
//     columns: each source's offset from the block's lo packed in
//     bits.Len32(hi−lo) bits, least significant bit first, the last byte
//     zero-padded; its uvarint destinations; and, unless the tile's weight
//     is constant, its raw little-endian float32 weights. The span is what
//     the 2PS relabeling's locality pays into: a partition packs
//     communities into contiguous ID ranges, so the 64 records of a block
//     span a narrow range and their sources take a few bits each — fewer
//     than the per-record source deltas a span-less column would need, which
//     is what pays for the directory.
//   - FlagRaw: n 12-byte little-endian records, verbatim. The encoder
//     falls back to raw whenever the block payload would not be smaller,
//     so a tile is never larger than its raw form plus the fixed header.
//
// Encoding preserves record order exactly — a decoded tile is
// bit-identical to the batch that was encoded, weights included — so
// compression is invisible to everything above the reader: scatter order,
// update order and therefore all results are unchanged.
//
// A reader that needs only some of a tile's records passes DecodeVerify a
// block predicate: the payload is checksummed whole, and then only the
// blocks whose source span the predicate accepts are decoded — located
// through the directory in a FlagBlocks tile, by their spans computed from
// the records in a raw one. The encoder writes each block's exact span; a
// decoded block with a source outside its directory span is an error.
//
// Decode reads only what Encode writes and is hardened against malformed
// input: a missing checksum flag, truncated headers, length mismatches,
// varints that overflow 32 bits, record counts beyond MaxTileRecs,
// directory entries that point outside the payload or overlap, and trailing
// garbage all return errors, never panic (the FuzzDecodeTile target pins
// this). An edge file never outlives the process that wrote it, so there is
// no older tile format to read.
package tilecodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/storage"
)

// Payload encodings, stored in the tile header's flag byte.
const (
	// FlagRaw marks a tile stored as verbatim 12-byte records — the
	// fallback when block encoding would not shrink the payload.
	FlagRaw = 0x00
	// FlagBlocks marks a block-major encoded tile.
	FlagBlocks = 0x04
	// FlagCRC is OR'd into either encoding: a 4-byte CRC32C of the
	// payload trails the tile. Encode always sets it; Decode rejects a
	// tile without it.
	FlagCRC = 0x02
)

// BlockRecs is the record count of a block, the unit a partial decode keeps
// or skips. On the selective benchmark's 2PS clique chain, a walk of the
// prepared edge files keeping every unit whose span holds a vertex of the
// BFS level streamed 9.01 M records a job at 1024-record units, 5.86 M at
// 256, 5.33 M at 128, 5.07 M at 64 and 4.94 M at 32, for 4.62 M needed:
// 64 takes nearly all the gain for a directory of a few bytes a block.
const BlockRecs = 64

// crcBytes is the size of the checksum trailing every tile.
const crcBytes = 4

// Weight modes, the first byte of a FlagBlocks payload.
const (
	weightConst = 0x00 // one float32, shared by every record
	weightRaw   = 0x01 // each block carries its records' raw float32s
)

// MaxTileRecs bounds the record count a tile header may claim — far above
// any real tile granularity, low enough that a malformed header cannot
// drive a huge allocation.
const MaxTileRecs = 1 << 22

// EdgeBytes is the raw on-disk size of one edge record.
const EdgeBytes = 12

// Encoder encodes tiles, reusing internal scratch buffers across calls.
// Not safe for concurrent use; the shuffle's single writer goroutine owns
// one.
type Encoder struct {
	dir, blocks []byte
}

// Encode appends one encoded tile for edges to dst and returns the extended
// slice, plus whether the block encoding was used (false means the raw
// fallback). Encoding an empty batch is an error: the shuffle never writes
// empty tiles, and rejecting them keeps the decoder's "n must be positive"
// check an invariant rather than a special case.
func (e *Encoder) Encode(dst []byte, edges []core.Edge) ([]byte, bool, error) {
	n := len(edges)
	if n == 0 {
		return dst, false, fmt.Errorf("tilecodec: encode of an empty tile")
	}
	if n > MaxTileRecs {
		return dst, false, fmt.Errorf("tilecodec: tile of %d records exceeds the %d cap", n, MaxTileRecs)
	}
	// Generated graphs often carry one shared weight; detect it by bit
	// pattern (value equality would conflate +0/-0 and miss NaN).
	wbits := math.Float32bits(edges[0].Weight)
	constW := true
	for _, ed := range edges[1:] {
		if math.Float32bits(ed.Weight) != wbits {
			constW = false
			break
		}
	}

	dir, body := e.dir[:0], e.blocks[:0]
	prevLo := uint32(0)
	for b := 0; b < n; b += BlockRecs {
		blk := edges[b:min(b+BlockRecs, n)]
		span := core.NewSrcSpan(blk[0].Src)
		for _, ed := range blk[1:] {
			span.Add(ed.Src)
		}
		// Sources: each record's offset from the block's lo in the span's
		// bit width, packed least significant bit first.
		w := bits.Len32(uint32(span.Hi - span.Lo))
		var acc uint64
		nb := 0
		for _, ed := range blk {
			acc |= uint64(uint32(ed.Src-span.Lo)) << nb
			for nb += w; nb >= 8; nb -= 8 {
				body = append(body, byte(acc))
				acc >>= 8
			}
		}
		if nb > 0 {
			body = append(body, byte(acc))
		}
		for _, ed := range blk {
			body = binary.AppendUvarint(body, uint64(ed.Dst))
		}
		if !constW {
			for _, ed := range blk {
				body = binary.LittleEndian.AppendUint32(body, math.Float32bits(ed.Weight))
			}
		}
		dir = binary.AppendVarint(dir, int64(int32(uint32(span.Lo)-prevLo)))
		dir = binary.AppendUvarint(dir, uint64(span.Hi-span.Lo))
		dir = binary.AppendUvarint(dir, uint64(len(body)))
		prevLo = uint32(span.Lo)
	}
	e.dir, e.blocks = dir, body

	head := 1 + uvarintLen(uint64(len(dir)))
	if constW {
		head += 4
	}
	plen := head + len(dir) + len(body)
	raw := plen >= n*EdgeBytes
	flag := byte(FlagBlocks | FlagCRC)
	if raw {
		flag, plen = FlagRaw|FlagCRC, n*EdgeBytes
	}
	dst = append(dst, flag)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(plen))
	payloadStart := len(dst)
	if raw {
		for _, ed := range edges {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ed.Src))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(ed.Dst))
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(ed.Weight))
		}
	} else {
		if constW {
			dst = append(dst, weightConst)
			dst = binary.LittleEndian.AppendUint32(dst, wbits)
		} else {
			dst = append(dst, weightRaw)
		}
		dst = binary.AppendUvarint(dst, uint64(len(dir)))
		dst = append(dst, dir...)
		dst = append(dst, body...)
	}
	crc := storage.Checksum(dst[payloadStart:])
	return binary.LittleEndian.AppendUint32(dst, crc), !raw, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Decode reads one tile from the front of data into out (grown if too
// small, reused otherwise) and returns the decoded records, the number of
// bytes consumed, and an error for any malformed, truncated or overflowing
// input. The tile's checksum is verified; a mismatch wraps
// storage.ErrCorrupted. On success the decoded batch is bit-identical to
// what Encode was given, in the same order.
func Decode(data []byte, out []core.Edge) ([]core.Edge, int, error) {
	recs, _, consumed, err := DecodeVerify(data, out, true, nil)
	return recs, consumed, err
}

// DecodeVerify is Decode with checksum verification switchable and an
// optional block predicate. verify false skips the CRC comparison (the
// measured-overhead ablation) while still consuming the CRC bytes, so
// framing is identical either way. With need nil every record is decoded;
// otherwise only the blocks whose source span need accepts are, and it
// returns their records in tile order plus the number of records skipped;
// need is asked once per block, in tile order.
// The checksum, when verified, covers the whole payload, skipped blocks
// included, and is checked before any block is decoded.
func DecodeVerify(data []byte, out []core.Edge, verify bool, need func(core.SrcSpan) bool) (recs []core.Edge, skipped, consumed int, err error) {
	if len(data) < 3 {
		return nil, 0, 0, fmt.Errorf("tilecodec: tile header truncated: %d bytes", len(data))
	}
	if data[0]&FlagCRC == 0 {
		return nil, 0, 0, fmt.Errorf("tilecodec: tile flag 0x%02x carries no checksum", data[0])
	}
	flag := data[0] &^ FlagCRC
	if flag != FlagRaw && flag != FlagBlocks {
		return nil, 0, 0, fmt.Errorf("tilecodec: unknown tile flag 0x%02x", data[0])
	}
	pos := 1
	n64, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, 0, fmt.Errorf("tilecodec: malformed record count")
	}
	pos += k
	if n64 == 0 || n64 > MaxTileRecs {
		return nil, 0, 0, fmt.Errorf("tilecodec: record count %d outside (0, %d]", n64, MaxTileRecs)
	}
	n := int(n64)
	plen64, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, 0, fmt.Errorf("tilecodec: malformed payload length")
	}
	pos += k
	avail := uint64(len(data) - pos)
	if plen64 > avail || plen64+crcBytes > avail {
		return nil, 0, 0, fmt.Errorf("tilecodec: payload truncated: header claims %d bytes, %d available", plen64+crcBytes, avail)
	}
	// Capped at its length, so no directory entry can reach past it.
	payload := data[pos : pos+int(plen64) : pos+int(plen64)]
	end := pos + int(plen64+crcBytes)
	if verify {
		want := binary.LittleEndian.Uint32(data[pos+int(plen64):])
		if got := storage.Checksum(payload); got != want {
			return nil, 0, 0, fmt.Errorf("tilecodec: tile payload checksum %08x, want %08x: %w",
				got, want, storage.ErrCorrupted)
		}
	}

	if cap(out) < n {
		out = make([]core.Edge, n)
	}
	out = out[:n]
	var kept int
	if flag == FlagRaw {
		kept, err = decodeRaw(payload, out, need)
	} else {
		kept, err = decodeBlocks(payload, out, need)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return out[:kept], n - kept, end, nil
}

// decodeRaw decodes a FlagRaw payload of len(out) records into out, or with
// need only the blocks whose span — computed from their sources — it
// accepts, compacted to the front. It returns the records kept.
func decodeRaw(payload []byte, out []core.Edge, need func(core.SrcSpan) bool) (int, error) {
	n := len(out)
	if len(payload) != n*EdgeBytes {
		return 0, fmt.Errorf("tilecodec: raw payload of %d bytes for %d records", len(payload), n)
	}
	kept := 0
	for b := 0; b < n; b += BlockRecs {
		m := min(BlockRecs, n-b)
		recs := payload[b*EdgeBytes : (b+m)*EdgeBytes]
		if need != nil {
			span := core.NewSrcSpan(core.VertexID(binary.LittleEndian.Uint32(recs)))
			for i := EdgeBytes; i < len(recs); i += EdgeBytes {
				span.Add(core.VertexID(binary.LittleEndian.Uint32(recs[i:])))
			}
			if !need(span) {
				continue
			}
		}
		for i := range m {
			rec := recs[i*EdgeBytes:]
			out[kept+i] = core.Edge{
				Src:    core.VertexID(binary.LittleEndian.Uint32(rec)),
				Dst:    core.VertexID(binary.LittleEndian.Uint32(rec[4:])),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
			}
		}
		kept += m
	}
	return kept, nil
}

// decodeBlocks decodes a FlagBlocks payload of len(out) records into out,
// or with need only the blocks whose directory span it accepts, compacted
// to the front. It returns the records kept. The directory is read entry
// by entry as the blocks are reached; each entry is checked against the
// payload before its block is located, decoded or skipped.
func decodeBlocks(payload []byte, out []core.Edge, need func(core.SrcSpan) bool) (int, error) {
	n := len(out)
	if len(payload) == 0 {
		return 0, fmt.Errorf("tilecodec: weight mode missing")
	}
	mode, q := payload[0], 1
	var w float32
	switch mode {
	case weightConst:
		if len(payload)-q < 4 {
			return 0, fmt.Errorf("tilecodec: constant weight truncated")
		}
		w = math.Float32frombits(binary.LittleEndian.Uint32(payload[q:]))
		q += 4
	case weightRaw:
	default:
		return 0, fmt.Errorf("tilecodec: unknown weight mode 0x%02x", mode)
	}
	dlen, k := binary.Uvarint(payload[q:])
	if k <= 0 {
		return 0, fmt.Errorf("tilecodec: malformed block directory length")
	}
	q += k
	if dlen > uint64(len(payload)-q) {
		return 0, fmt.Errorf("tilecodec: block directory of %d bytes, %d follow", dlen, len(payload)-q)
	}
	dir, area := payload[q:q+int(dlen)], payload[q+int(dlen):]
	dq, lo, start, kept := 0, uint32(0), 0, 0
	for b := 0; b < n; b += BlockRecs {
		blk := b / BlockRecs
		d, k := binary.Varint(dir[dq:])
		if k <= 0 {
			return 0, fmt.Errorf("tilecodec: malformed span of block %d", blk)
		}
		if d < math.MinInt32 || d > math.MaxInt32 {
			return 0, fmt.Errorf("tilecodec: span delta %d of block %d overflows 32 bits", d, blk)
		}
		dq += k
		lo += uint32(int32(d))
		width, k := binary.Uvarint(dir[dq:])
		if k <= 0 {
			return 0, fmt.Errorf("tilecodec: malformed span of block %d", blk)
		}
		if width > math.MaxUint32-uint64(lo) {
			return 0, fmt.Errorf("tilecodec: span [%d,+%d] of block %d overflows 32 bits", lo, width, blk)
		}
		dq += k
		e, k := binary.Uvarint(dir[dq:])
		if k <= 0 {
			return 0, fmt.Errorf("tilecodec: malformed end offset of block %d", blk)
		}
		dq += k
		if e > uint64(len(area)) {
			return 0, fmt.Errorf("tilecodec: block %d ends at %d, past the %d bytes of blocks", blk, e, len(area))
		}
		if e <= uint64(start) {
			return 0, fmt.Errorf("tilecodec: block %d ends at %d, overlapping the block before it (ends at %d)", blk, e, start)
		}
		span := core.SrcSpan{Lo: core.VertexID(lo), Hi: core.VertexID(lo + uint32(width))}
		bytes := area[start:e]
		start = int(e)
		m := min(BlockRecs, n-b)
		if need != nil && !need(span) {
			continue
		}
		if err := decodeBlock(bytes, out[kept:kept+m], span, mode == weightRaw, w, b); err != nil {
			return 0, err
		}
		kept += m
	}
	if dq != len(dir) {
		return 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in block directory", len(dir)-dq)
	}
	if start != len(area) {
		return 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in tile payload", len(area)-start)
	}
	return kept, nil
}

// decodeBlock decodes one block's columns — bytes, exactly — into out, the
// block's len(out) records; base is its first record's index in the tile,
// for error messages. Every source must lie in span. rawWeights says
// the block carries its weights; otherwise every record gets w.
//
// Each source offset is one 8-byte load, shift and mask. Destinations
// decode on an inline fast path first: a one- to three-byte varint, taken
// only when it terminates inside bytes the fast path has already
// bounds-checked, cannot overflow 32 bits and needs no check of its own. A
// longer, unterminated or block-end varint falls through to
// binary.Uvarint, which owns every error.
func decodeBlock(bytes []byte, out []core.Edge, span core.SrcSpan, rawWeights bool, w float32, base int) error {
	lo, width := uint32(span.Lo), uint32(span.Hi-span.Lo)
	sw := uint(bits.Len32(width))
	q := (len(out)*int(sw) + 7) / 8
	if len(bytes) < q {
		return fmt.Errorf("tilecodec: source offsets of %d bytes for the %d records from record %d", len(bytes), len(out), base)
	}
	mask := uint64(1)<<sw - 1
	for i := range out {
		// An offset ends at most 39 bits past the byte it starts in; the
		// block's later columns, or a zero-padded copy at its end, fill
		// the rest of one 8-byte load.
		bit := uint(i) * sw
		at := bit >> 3
		var v uint64
		if int(at)+8 <= len(bytes) {
			v = binary.LittleEndian.Uint64(bytes[at:])
		} else {
			var tail [8]byte
			copy(tail[:], bytes[at:])
			v = binary.LittleEndian.Uint64(tail[:])
		}
		off := uint32(v >> (bit & 7) & mask)
		if off > width {
			return fmt.Errorf("tilecodec: source %d at record %d outside its block's span [%d,%d]", lo+off, base+i, span.Lo, span.Hi)
		}
		out[i].Src = core.VertexID(lo + off)
	}
	for i := range out {
		if rest := bytes[q:]; len(rest) >= 3 {
			b0, b1, b2 := rest[0], rest[1], rest[2]
			switch {
			case b0 < 0x80:
				out[i].Dst = core.VertexID(b0)
				q++
				continue
			case b1 < 0x80:
				out[i].Dst = core.VertexID(uint32(b0&0x7f) | uint32(b1)<<7)
				q += 2
				continue
			case b2 < 0x80:
				out[i].Dst = core.VertexID(uint32(b0&0x7f) | uint32(b1&0x7f)<<7 | uint32(b2)<<14)
				q += 3
				continue
			}
		}
		v, k := binary.Uvarint(bytes[q:])
		if k <= 0 {
			return fmt.Errorf("tilecodec: malformed destination at record %d", base+i)
		}
		if v > math.MaxUint32 {
			return fmt.Errorf("tilecodec: destination %d overflows 32 bits at record %d", v, base+i)
		}
		q += k
		out[i].Dst = core.VertexID(v)
	}
	if rawWeights {
		if len(bytes)-q < 4*len(out) {
			return fmt.Errorf("tilecodec: weights of %d bytes for the %d records from record %d", len(bytes)-q, len(out), base)
		}
		for i := range out {
			out[i].Weight = math.Float32frombits(binary.LittleEndian.Uint32(bytes[q+4*i:]))
		}
		q += 4 * len(out)
	} else {
		for i := range out {
			out[i].Weight = w
		}
	}
	if q != len(bytes) {
		return fmt.Errorf("tilecodec: %d bytes of trailing garbage in the block from record %d", len(bytes)-q, base)
	}
	return nil
}
