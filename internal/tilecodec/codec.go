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
// where the trailing 4-byte little-endian CRC32C of the payload is always
// present and the FlagCRC bit marks it (the encoder always sets it; a tile
// without it is an error), and the low flag bits select the payload
// encoding:
//
//   - FlagDelta: three columnar streams — n signed-varint source deltas
//     (zigzag, wrapping uint32 arithmetic, previous source starts at 0),
//     then n uvarint destinations, then a 1-byte weight mode followed by
//     either one float32 (every weight in the tile is bit-identical) or n
//     raw little-endian float32s. Source deltas are what the 2PS
//     relabeling's locality pays into: a partition packs communities into
//     contiguous ID ranges, so consecutive records in a shuffled run land
//     near each other and deltas fit in one or two bytes.
//   - FlagRaw: n 12-byte little-endian records, verbatim. The encoder
//     falls back to raw whenever the delta payload would not be smaller,
//     so a tile is never larger than its raw form plus the fixed header.
//
// Encoding preserves record order exactly — a decoded tile is
// bit-identical to the batch that was encoded, weights included — so
// compression is invisible to everything above the reader: scatter order,
// update order and therefore all results are unchanged.
//
// Decode reads only what Encode writes and is hardened against malformed
// input: a missing checksum flag, truncated headers, length mismatches,
// varints that overflow 32 bits, record counts beyond MaxTileRecs and
// trailing payload garbage all return errors, never panic (the
// FuzzDecodeTile target pins this). An edge file never outlives the process
// that wrote it, so there is no older tile format to read.
package tilecodec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/storage"
)

// Payload encodings, stored in the tile header's flag byte.
const (
	// FlagRaw marks a tile stored as verbatim 12-byte records — the
	// fallback when delta encoding would not shrink the payload.
	FlagRaw = 0x00
	// FlagDelta marks a delta-varint encoded tile.
	FlagDelta = 0x01
	// FlagCRC is OR'd into either encoding: a 4-byte CRC32C of the
	// payload trails the tile. Encode always sets it; Decode rejects a
	// tile without it.
	FlagCRC = 0x02
)

// crcBytes is the size of the checksum trailing every tile.
const crcBytes = 4

// Weight-block modes inside a FlagDelta payload.
const (
	weightConst = 0x00 // one float32, shared by every record
	weightRaw   = 0x01 // n raw little-endian float32s
)

// MaxTileRecs bounds the record count a tile header may claim — far above
// any real tile granularity, low enough that a malformed header cannot
// drive a huge allocation.
const MaxTileRecs = 1 << 22

// EdgeBytes is the raw on-disk size of one edge record.
const EdgeBytes = 12

// Encoder encodes tiles, reusing an internal scratch buffer across calls.
// Not safe for concurrent use; the shuffle's single writer goroutine owns
// one.
type Encoder struct {
	scratch []byte
}

// Encode appends one encoded tile for edges to dst and returns the extended
// slice, plus whether the delta encoding was used (false means the raw
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

	body := e.scratch[:0]
	// Source deltas: zigzag varints over wrapping uint32 arithmetic, so any
	// source sequence — ascending, descending, wrapping — round-trips.
	prev := uint32(0)
	for _, ed := range edges {
		body = binary.AppendVarint(body, int64(int32(uint32(ed.Src)-prev)))
		prev = uint32(ed.Src)
	}
	for _, ed := range edges {
		body = binary.AppendUvarint(body, uint64(ed.Dst))
	}
	// Weight block: generated graphs often carry one shared weight; detect
	// it by bit pattern (value equality would conflate +0/-0 and miss NaN).
	wbits := math.Float32bits(edges[0].Weight)
	allSame := true
	for _, ed := range edges[1:] {
		if math.Float32bits(ed.Weight) != wbits {
			allSame = false
			break
		}
	}
	if allSame {
		body = append(body, weightConst)
		body = binary.LittleEndian.AppendUint32(body, wbits)
	} else {
		body = append(body, weightRaw)
		for _, ed := range edges {
			body = binary.LittleEndian.AppendUint32(body, math.Float32bits(ed.Weight))
		}
	}
	e.scratch = body

	raw := len(body) >= n*EdgeBytes
	flag := byte(FlagDelta | FlagCRC)
	plen := len(body)
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
		dst = append(dst, body...)
	}
	crc := storage.Checksum(dst[payloadStart:])
	return binary.LittleEndian.AppendUint32(dst, crc), !raw, nil
}

// Decode reads one tile from the front of data into out (grown if too
// small, reused otherwise) and returns the decoded records, the number of
// bytes consumed, and an error for any malformed, truncated or overflowing
// input. The tile's checksum is verified; a mismatch wraps
// storage.ErrCorrupted. On success the decoded batch is bit-identical to
// what Encode was given, in the same order.
func Decode(data []byte, out []core.Edge) ([]core.Edge, int, error) {
	return DecodeVerify(data, out, true)
}

// DecodeVerify is Decode with checksum verification switchable: verify
// false skips the CRC comparison (the measured-overhead ablation) while
// still consuming the CRC bytes, so framing is identical either way.
func DecodeVerify(data []byte, out []core.Edge, verify bool) ([]core.Edge, int, error) {
	if len(data) < 3 {
		return nil, 0, fmt.Errorf("tilecodec: tile header truncated: %d bytes", len(data))
	}
	if data[0]&FlagCRC == 0 {
		return nil, 0, fmt.Errorf("tilecodec: tile flag 0x%02x carries no checksum", data[0])
	}
	flag := data[0] &^ FlagCRC
	if flag != FlagRaw && flag != FlagDelta {
		return nil, 0, fmt.Errorf("tilecodec: unknown tile flag 0x%02x", data[0])
	}
	pos := 1
	n64, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("tilecodec: malformed record count")
	}
	pos += k
	if n64 == 0 || n64 > MaxTileRecs {
		return nil, 0, fmt.Errorf("tilecodec: record count %d outside (0, %d]", n64, MaxTileRecs)
	}
	n := int(n64)
	plen64, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("tilecodec: malformed payload length")
	}
	pos += k
	avail := uint64(len(data) - pos)
	if plen64 > avail || plen64+crcBytes > avail {
		return nil, 0, fmt.Errorf("tilecodec: payload truncated: header claims %d bytes, %d available", plen64+crcBytes, avail)
	}
	payload := data[pos : pos+int(plen64)]
	end := pos + int(plen64+crcBytes)
	if verify {
		want := binary.LittleEndian.Uint32(data[pos+int(plen64):])
		if got := storage.Checksum(payload); got != want {
			return nil, 0, fmt.Errorf("tilecodec: tile payload checksum %08x, want %08x: %w",
				got, want, storage.ErrCorrupted)
		}
	}

	if cap(out) < n {
		out = make([]core.Edge, n)
	}
	out = out[:n]

	if flag == FlagRaw {
		if len(payload) != n*EdgeBytes {
			return nil, 0, fmt.Errorf("tilecodec: raw payload of %d bytes for %d records", len(payload), n)
		}
		for i := range out {
			rec := payload[i*EdgeBytes:]
			out[i] = core.Edge{
				Src:    core.VertexID(binary.LittleEndian.Uint32(rec)),
				Dst:    core.VertexID(binary.LittleEndian.Uint32(rec[4:])),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
			}
		}
		return out, end, nil
	}

	// The two ID columns decode on inline fast paths first: a one- or
	// two-byte source delta, a one- to three-byte destination, each taken
	// only when the varint terminates inside bytes the fast path has already
	// bounds-checked. Their values cannot overflow 32 bits, so they need no
	// check of their own. A longer, unterminated or payload-end varint falls
	// through to the binary.Varint/Uvarint decoder, which owns every error.
	q := 0
	prev := uint32(0)
	for i := range out {
		if rest := payload[q:]; len(rest) >= 2 {
			if b0 := rest[0]; b0 < 0x80 {
				prev += unzigzag(uint32(b0))
				out[i].Src = core.VertexID(prev)
				q++
				continue
			} else if b1 := rest[1]; b1 < 0x80 {
				prev += unzigzag(uint32(b0&0x7f) | uint32(b1)<<7)
				out[i].Src = core.VertexID(prev)
				q += 2
				continue
			}
		}
		d, k := binary.Varint(payload[q:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("tilecodec: malformed source delta at record %d", i)
		}
		if d < math.MinInt32 || d > math.MaxInt32 {
			return nil, 0, fmt.Errorf("tilecodec: source delta %d overflows 32 bits at record %d", d, i)
		}
		q += k
		prev += uint32(int32(d))
		out[i].Src = core.VertexID(prev)
	}
	for i := range out {
		if rest := payload[q:]; len(rest) >= 3 {
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
		v, k := binary.Uvarint(payload[q:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("tilecodec: malformed destination at record %d", i)
		}
		if v > math.MaxUint32 {
			return nil, 0, fmt.Errorf("tilecodec: destination %d overflows 32 bits at record %d", v, i)
		}
		q += k
		out[i].Dst = core.VertexID(v)
	}
	if q >= len(payload) {
		return nil, 0, fmt.Errorf("tilecodec: weight block missing")
	}
	switch payload[q] {
	case weightConst:
		q++
		if len(payload)-q < 4 {
			return nil, 0, fmt.Errorf("tilecodec: constant weight truncated")
		}
		w := math.Float32frombits(binary.LittleEndian.Uint32(payload[q:]))
		q += 4
		for i := range out {
			out[i].Weight = w
		}
	case weightRaw:
		q++
		if len(payload)-q < n*4 {
			return nil, 0, fmt.Errorf("tilecodec: weight block of %d bytes for %d records", len(payload)-q, n)
		}
		for i := range out {
			out[i].Weight = math.Float32frombits(binary.LittleEndian.Uint32(payload[q+4*i:]))
		}
		q += n * 4
	default:
		return nil, 0, fmt.Errorf("tilecodec: unknown weight mode 0x%02x", payload[q])
	}
	if q != len(payload) {
		return nil, 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in tile payload", len(payload)-q)
	}
	return out, end, nil
}

// unzigzag maps a zigzag-encoded delta back to its two's-complement value
// in wrapping uint32 arithmetic, as binary.Varint followed by int32 does.
func unzigzag(u uint32) uint32 { return u>>1 ^ -(u & 1) }
