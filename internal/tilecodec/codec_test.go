package tilecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// sameEdges compares batches bit-wise: weights by bit pattern, so NaN and
// the -0/+0 distinction are preserved exactly.
func sameEdges(t *testing.T, got, want []core.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
			t.Fatalf("record %d: %+v (w=%#x) != %+v (w=%#x)", i,
				g, math.Float32bits(g.Weight), w, math.Float32bits(w.Weight))
		}
	}
}

// roundTrip encodes edges, decodes the result, and checks identity plus
// exact consumption. Returns whether the tile was block-coded.
func roundTrip(t *testing.T, edges []core.Edge) bool {
	t.Helper()
	var enc Encoder
	buf, compressed, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, consumed, err := Decode(buf, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if consumed != len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	sameEdges(t, got, edges)
	return compressed
}

func TestRoundTripShapes(t *testing.T) {
	cases := map[string][]core.Edge{
		"single":     {{Src: 7, Dst: 9, Weight: 0.25}},
		"ascending":  {{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}},
		"descending": {{Src: 100, Dst: 1}, {Src: 50, Dst: 2}, {Src: 0, Dst: 3}},
		"same-src":   {{Src: 5, Dst: 1}, {Src: 5, Dst: 2}, {Src: 5, Dst: 3}},
		"max-ids":    {{Src: math.MaxUint32, Dst: math.MaxUint32, Weight: 1}, {Src: 0, Dst: 0}},
		"wrap-delta": {{Src: 0, Dst: 1}, {Src: math.MaxUint32, Dst: 2}, {Src: 1, Dst: 3}},
		"nan-weight": {{Src: 1, Dst: 2, Weight: float32(math.NaN())}, {Src: 2, Dst: 3, Weight: 1}},
		"neg-zero":   {{Src: 1, Dst: 2, Weight: float32(math.Copysign(0, -1))}, {Src: 2, Dst: 3, Weight: 0}},
		"inf-weight": {{Src: 1, Dst: 2, Weight: float32(math.Inf(1))}, {Src: 2, Dst: 3, Weight: float32(math.Inf(-1))}},
	}
	for name, edges := range cases {
		t.Run(name, func(t *testing.T) { roundTrip(t, edges) })
	}
}

// TestRoundTripRandom is the encode∘decode = id property over random
// batches of every shape: clustered sources (the 2PS-relabeled case),
// uniform 32-bit sources (the adversarial case that triggers the raw
// fallback), constant and random weights.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5000)
		edges := make([]core.Edge, n)
		clustered := trial%2 == 0
		constW := trial%3 == 0
		base := rng.Uint32()
		for i := range edges {
			if clustered {
				edges[i].Src = core.VertexID(base + uint32(rng.Intn(512)))
			} else {
				edges[i].Src = core.VertexID(rng.Uint32())
			}
			edges[i].Dst = core.VertexID(rng.Uint32() >> uint(rng.Intn(33)))
			if constW {
				edges[i].Weight = 0.5
			} else {
				edges[i].Weight = rng.Float32()
			}
		}
		roundTrip(t, edges)
	}
}

// TestCompressionPays pins the point of the codec: on a locality-packed
// batch (narrow source spans, bounded destinations — what a 2PS-relabeled
// shuffle run looks like) the encoded tile must be well under the raw
// size, and the encoder must report the block encoding.
func TestCompressionPays(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	edges := make([]core.Edge, 4096)
	for i := range edges {
		edges[i] = core.Edge{
			Src:    core.VertexID(1000 + rng.Intn(256)),
			Dst:    core.VertexID(rng.Intn(1 << 14)),
			Weight: rng.Float32(),
		}
	}
	var enc Encoder
	buf, compressed, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !compressed {
		t.Fatalf("locality-packed tile fell back to raw")
	}
	raw := len(edges) * EdgeBytes
	if len(buf) > raw*7/10 {
		t.Fatalf("encoded %d bytes, want ≤ 70%% of raw %d", len(buf), raw)
	}
	if !roundTrip(t, edges) {
		t.Fatal("round trip lost the compressed flag")
	}
}

// TestRawFallback pins the other side: uniform 32-bit sources make deltas
// ~5 bytes, so the encoder must fall back to raw and cost only the header.
func TestRawFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges := make([]core.Edge, 1024)
	for i := range edges {
		edges[i] = core.Edge{
			Src:    core.VertexID(rng.Uint32()),
			Dst:    core.VertexID(rng.Uint32()),
			Weight: rng.Float32(),
		}
	}
	var enc Encoder
	buf, compressed, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	if compressed {
		t.Fatalf("adversarial tile claims block coding")
	}
	raw := len(edges) * EdgeBytes
	if len(buf) > raw+16 {
		t.Fatalf("raw fallback costs %d bytes over %d raw", len(buf)-raw, raw)
	}
	roundTrip(t, edges)
}

func TestEncodeRejects(t *testing.T) {
	var enc Encoder
	if _, _, err := enc.Encode(nil, nil); err == nil {
		t.Fatal("empty tile encoded")
	}
}

// TestDecodeRejects walks the malformed shapes a hostile or torn file can
// present: each must error cleanly, never panic or mis-decode.
func TestDecodeRejects(t *testing.T) {
	var enc Encoder
	valid, _, err := enc.Encode(nil, []core.Edge{{Src: 1, Dst: 2, Weight: 0.5}, {Src: 3, Dst: 4, Weight: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       {FlagBlocks | FlagCRC},
		"bad-flag":    {0x7f, 0x01, 0x00},
		"no-checksum": {FlagBlocks, 0x01, 0x00},
		"zero-count":  {FlagBlocks | FlagCRC, 0x00, 0x00},
		"huge-count":  {FlagBlocks | FlagCRC, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00},
		"payload-gap": {FlagBlocks | FlagCRC, 0x01, 0x40},                                   // claims 64 payload bytes, has none
		"raw-short":   frameTile(FlagRaw, 2, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}), // 12 bytes for 2 records
	}
	for i := 1; i < len(valid); i++ {
		cases["truncated-"+string(rune('a'+i%26))+"_"] = valid[:i]
	}
	for name, data := range cases {
		if _, _, err := Decode(data, nil); err == nil {
			t.Errorf("%s: malformed tile decoded cleanly", name)
		}
	}
	// Flipping the payload-length byte to overflow must error, not read
	// into the next tile's bytes.
	two := append(append([]byte{}, valid...), valid...)
	if _, n, err := Decode(two, nil); err != nil || n != len(valid) {
		t.Fatalf("back-to-back tiles: consumed %d err %v, want %d nil", n, err, len(valid))
	}
}

// TestDecodeReuse checks the out-buffer contract: a large enough buffer is
// reused, a small one is replaced.
func TestDecodeReuse(t *testing.T) {
	var enc Encoder
	edges := []core.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	buf, _, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]core.Edge, 16)
	got, _, err := Decode(buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[0] {
		t.Fatal("large out buffer was not reused")
	}
	sameEdges(t, got, edges)
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	edges := []core.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 3, Dst: 9, Weight: 1}, {Src: 4, Dst: 1, Weight: 1}}
	var enc Encoder
	buf, _, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0]&FlagCRC == 0 {
		t.Fatal("encoder did not set FlagCRC")
	}
	// Flip every bit of the payload and trailer in turn: each corruption
	// must be rejected (checksum mismatch or, for framing bytes, a
	// malformed-input error) — never silently decoded.
	for i := 1; i < len(buf); i++ {
		for b := 0; b < 8; b++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << b
			if _, _, err := Decode(mut, nil); err == nil {
				got, _, _, _ := DecodeVerify(mut, nil, true, nil)
				t.Fatalf("bit flip at byte %d bit %d decoded silently: %+v", i, b, got)
			}
		}
	}
	// The unmutated tile still decodes, and skipping verification is
	// framing-identical.
	if _, n, err := Decode(buf, nil); err != nil || n != len(buf) {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	if _, _, n, err := DecodeVerify(buf, nil, false, nil); err != nil || n != len(buf) {
		t.Fatalf("unverified decode: n=%d err=%v", n, err)
	}
}

func TestChecksumMismatchIsErrCorrupted(t *testing.T) {
	edges := make([]core.Edge, 64)
	for i := range edges {
		edges[i] = core.Edge{Src: core.VertexID(i), Dst: core.VertexID(i * 7 % 64), Weight: 1}
	}
	var enc Encoder
	buf, _, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte well past the header.
	buf[len(buf)-6] ^= 0x40
	_, _, err = Decode(buf, nil)
	if err == nil {
		t.Fatal("corrupted payload decoded")
	}
	if !errors.Is(err, storage.ErrCorrupted) {
		t.Fatalf("corruption error %v does not wrap storage.ErrCorrupted", err)
	}
	// Verification off: the CRC is not compared, so the (structurally
	// valid) corruption decodes — exactly why verification defaults on.
	if _, _, _, err := DecodeVerify(buf, nil, false, nil); err != nil {
		t.Fatalf("unverified decode of payload corruption: %v", err)
	}
}

// referenceDecode is DecodeVerify's full decode without the fast paths:
// source offsets are read a bit at a time, every destination goes through
// binary.Uvarint, and each directory entry is read before its block. It is the oracle TestDecodeMatchesReference and
// FuzzDecodeTile hold the decoder to — same records, same bytes consumed,
// same error text.
func referenceDecode(data []byte, verify bool) ([]core.Edge, int, error) {
	if len(data) < 3 {
		return nil, 0, fmt.Errorf("tilecodec: tile header truncated: %d bytes", len(data))
	}
	if data[0]&FlagCRC == 0 {
		return nil, 0, fmt.Errorf("tilecodec: tile flag 0x%02x carries no checksum", data[0])
	}
	flag := data[0] &^ FlagCRC
	if flag != FlagRaw && flag != FlagBlocks {
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

	out := make([]core.Edge, n)
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

	if len(payload) == 0 {
		return nil, 0, fmt.Errorf("tilecodec: weight mode missing")
	}
	mode, q := payload[0], 1
	var w float32
	switch mode {
	case weightConst:
		if len(payload)-q < 4 {
			return nil, 0, fmt.Errorf("tilecodec: constant weight truncated")
		}
		w = math.Float32frombits(binary.LittleEndian.Uint32(payload[q:]))
		q += 4
	case weightRaw:
	default:
		return nil, 0, fmt.Errorf("tilecodec: unknown weight mode 0x%02x", mode)
	}
	dlen, k := binary.Uvarint(payload[q:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("tilecodec: malformed block directory length")
	}
	q += k
	if dlen > uint64(len(payload)-q) {
		return nil, 0, fmt.Errorf("tilecodec: block directory of %d bytes, %d follow", dlen, len(payload)-q)
	}
	dir, area := payload[q:q+int(dlen)], payload[q+int(dlen):]
	dq, lo, start := 0, uint32(0), 0
	for b := 0; b < n; b += BlockRecs {
		blk := b / BlockRecs
		d, k := binary.Varint(dir[dq:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("tilecodec: malformed span of block %d", blk)
		}
		if d < math.MinInt32 || d > math.MaxInt32 {
			return nil, 0, fmt.Errorf("tilecodec: span delta %d of block %d overflows 32 bits", d, blk)
		}
		dq += k
		lo += uint32(int32(d))
		width, k := binary.Uvarint(dir[dq:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("tilecodec: malformed span of block %d", blk)
		}
		if width > math.MaxUint32-uint64(lo) {
			return nil, 0, fmt.Errorf("tilecodec: span [%d,+%d] of block %d overflows 32 bits", lo, width, blk)
		}
		dq += k
		e, k := binary.Uvarint(dir[dq:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("tilecodec: malformed end offset of block %d", blk)
		}
		dq += k
		if e > uint64(len(area)) {
			return nil, 0, fmt.Errorf("tilecodec: block %d ends at %d, past the %d bytes of blocks", blk, e, len(area))
		}
		if e <= uint64(start) {
			return nil, 0, fmt.Errorf("tilecodec: block %d ends at %d, overlapping the block before it (ends at %d)", blk, e, start)
		}
		cols := area[start:e]
		start = int(e)
		recs := out[b:min(b+BlockRecs, n)]
		sw := bits.Len64(width)
		c := (len(recs)*sw + 7) / 8
		if len(cols) < c {
			return nil, 0, fmt.Errorf("tilecodec: source offsets of %d bytes for the %d records from record %d", len(cols), len(recs), b)
		}
		for i := range recs {
			off := uint64(0)
			for j := range sw {
				bit := i*sw + j
				off |= uint64(cols[bit/8]>>(bit%8)&1) << j
			}
			if off > width {
				return nil, 0, fmt.Errorf("tilecodec: source %d at record %d outside its block's span [%d,%d]", lo+uint32(off), b+i, lo, uint64(lo)+width)
			}
			recs[i].Src = core.VertexID(lo + uint32(off))
		}
		for i := range recs {
			v, k := binary.Uvarint(cols[c:])
			if k <= 0 {
				return nil, 0, fmt.Errorf("tilecodec: malformed destination at record %d", b+i)
			}
			if v > math.MaxUint32 {
				return nil, 0, fmt.Errorf("tilecodec: destination %d overflows 32 bits at record %d", v, b+i)
			}
			c += k
			recs[i].Dst = core.VertexID(v)
		}
		for i := range recs {
			recs[i].Weight = w
		}
		if mode == weightRaw {
			if len(cols)-c < 4*len(recs) {
				return nil, 0, fmt.Errorf("tilecodec: weights of %d bytes for the %d records from record %d", len(cols)-c, len(recs), b)
			}
			for i := range recs {
				recs[i].Weight = math.Float32frombits(binary.LittleEndian.Uint32(cols[c:]))
				c += 4
			}
		}
		if c != len(cols) {
			return nil, 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in the block from record %d", len(cols)-c, b)
		}
	}
	if dq != len(dir) {
		return nil, 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in block directory", len(dir)-dq)
	}
	if start != len(area) {
		return nil, 0, fmt.Errorf("tilecodec: %d bytes of trailing garbage in tile payload", len(area)-start)
	}
	return out, end, nil
}

// matchReference decodes data with DecodeVerify and referenceDecode and
// reports the first way they differ: accept/reject, error text, bytes
// consumed, or any record bit.
func matchReference(data []byte, verify bool) error {
	got, skipped, gn, gerr := DecodeVerify(data, nil, verify, nil)
	want, wn, werr := referenceDecode(data, verify)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		return fmt.Errorf("decode error %v, reference %v", gerr, werr)
	}
	if gn != wn || len(got) != len(want) || skipped != 0 {
		return fmt.Errorf("decoded %d records in %d bytes skipping %d, reference %d in %d", len(got), gn, skipped, len(want), wn)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
			return fmt.Errorf("record %d: %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// matchPartial decodes data whole and with the block predicate need, and
// reports the first way the partial decode is not the full decode's blocks
// whose span need accepts, in order: an error where the full decode
// succeeded, other records, another skip count or other bytes consumed. A
// block's span is what a decode through an accept-all predicate is asked
// about it, and must hold every source of the block.
func matchPartial(data []byte, verify bool, need func(core.SrcSpan) bool) error {
	var spans []core.SrcSpan
	full, _, fn, ferr := DecodeVerify(data, nil, verify, func(s core.SrcSpan) bool {
		spans = append(spans, s)
		return true
	})
	part, skipped, pn, perr := DecodeVerify(data, nil, verify, need)
	if ferr != nil {
		return nil // a partial decode of a rejected tile need only not panic
	}
	if perr != nil {
		return fmt.Errorf("partial decode failed where the full decode succeeded: %v", perr)
	}
	if len(spans) != (len(full)+BlockRecs-1)/BlockRecs {
		return fmt.Errorf("the predicate was asked about %d blocks of a %d-record tile", len(spans), len(full))
	}
	var want []core.Edge
	for i, span := range spans {
		blk := full[i*BlockRecs : min((i+1)*BlockRecs, len(full))]
		for _, ed := range blk {
			if ed.Src < span.Lo || ed.Src > span.Hi {
				return fmt.Errorf("block %d spans [%d,%d] but holds source %d", i, span.Lo, span.Hi, ed.Src)
			}
		}
		if need(span) {
			want = append(want, blk...)
		}
	}
	if pn != fn || skipped != len(full)-len(want) || len(part) != len(want) {
		return fmt.Errorf("partial decode kept %d records, skipped %d in %d bytes; want %d, %d in %d", len(part), skipped, pn, len(want), len(full)-len(want), fn)
	}
	for i := range want {
		g, w := part[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
			return fmt.Errorf("partial record %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// blocksTile frames a hand-built FlagBlocks payload claiming n records,
// with a valid checksum, so the payload decoder sees it exactly as written.
func blocksTile(n int, payload []byte) []byte { return frameTile(FlagBlocks, n, payload) }

// frameTile frames a hand-built payload of the given encoding claiming n
// records, with a valid checksum.
func frameTile(encoding byte, n int, payload []byte) []byte {
	tile := []byte{encoding | FlagCRC}
	tile = binary.AppendUvarint(tile, uint64(n))
	tile = binary.AppendUvarint(tile, uint64(len(payload)))
	tile = append(tile, payload...)
	return binary.LittleEndian.AppendUint32(tile, storage.Checksum(payload))
}

// oneBlock frames a FlagBlocks tile of n ≤ BlockRecs records whose one
// block spans [0, width] and holds the columns cols, with a constant weight
// of 1 in the header when constW (else the block must carry its weights).
func oneBlock(n int, width uint32, cols []byte, constW bool) []byte {
	p := []byte{weightRaw}
	if constW {
		p = []byte{weightConst, 0, 0, 0x80, 0x3f}
	}
	var dir []byte
	dir = binary.AppendVarint(dir, 0)
	dir = binary.AppendUvarint(dir, uint64(width))
	dir = binary.AppendUvarint(dir, uint64(len(cols)))
	p = binary.AppendUvarint(p, uint64(len(dir)))
	p = append(p, dir...)
	return blocksTile(n, append(p, cols...))
}

// packOffsets is the source column of offs in a block whose span takes w
// bits: each offset's low w bits, least significant bit first.
func packOffsets(w int, offs ...uint64) []byte {
	col := make([]byte, (len(offs)*w+7)/8)
	for i, off := range offs {
		for j := range w {
			if off>>j&1 != 0 {
				bit := i*w + j
				col[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return col
}

// boundaryTiles are one-block tiles whose IDs sit on and around every
// decoder boundary — destination values at each varint length, non-minimal
// and unterminated destinations, 32-bit overflows, source offsets at, past
// and all ones in span widths around every byte boundary, short source
// columns, and columns that end at or run past the block's last byte —
// encoded both in one-record tiles and in runs long enough that the fast
// paths have room to fire.
func boundaryTiles() [][]byte {
	dsts := []uint64{0, 1, 0x7f, 0x80, 0x81, 1<<14 - 1, 1 << 14, 1<<14 + 1,
		1<<21 - 1, 1 << 21, 1<<21 + 1, 1<<28 - 1, 1 << 28, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64}
	widths := []uint32{0, 1, 2, 3, 6, 7, 8, 9, 127, 128, 255, 256, 1<<16 - 1, 1 << 16,
		1<<24 + 5, 1<<31 - 1, 1 << 31, math.MaxUint32}
	// Non-minimal and unterminated byte strings, used as a destination.
	odd := [][]byte{
		{0x80, 0x00}, {0xff, 0x00}, {0x80, 0x80, 0x00}, {0xff, 0xff, 0x00}, {0x81, 0x80, 0x00},
		{0x80, 0x80, 0x80, 0x00}, {0xff, 0xff, 0xff, 0x7f}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{0x80}, {0x80, 0x80}, {0x80, 0x80, 0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	var tiles [][]byte
	// add frames the columns with a constant weight when constW, and
	// otherwise with raw weights the block lacks: its last column then
	// ends on the block's last byte.
	add := func(n int, width uint32, constW bool, parts ...[]byte) {
		var p []byte
		for _, b := range parts {
			p = append(p, b...)
		}
		tiles = append(tiles, oneBlock(n, width, p, constW))
	}
	one := binary.AppendUvarint(nil, 1)
	for _, v := range dsts {
		d := binary.AppendUvarint(nil, v)
		add(1, 0, true, d)
		add(3, 1, true, packOffsets(1, 0, 1, 1), d, d, d)
		add(1, 0, false, d) // the destination ends on the block's last byte
	}
	for _, width := range widths {
		w := bits.Len32(width)
		for _, off := range []uint64{0, uint64(width), uint64(width) + 1, 1<<w - 1} {
			src := packOffsets(w, off)
			add(1, width, true, src, one)
			add(3, width, true, packOffsets(w, off, 0, off), one, one, one)
			add(1, width, false, src) // the offsets end on the block's last byte
		}
		if src := packOffsets(w, 0, 0, 0); len(src) > 0 {
			add(3, width, true, src[:len(src)-1]) // a short source column
		}
	}
	for _, b := range odd {
		add(1, 0, true, b)
		add(2, 0, true, b, b)
		add(2, 1, true, packOffsets(1, 1, 0), one, b)
		add(1, 0, false, b)
	}
	return tiles
}

// TestDecodeMatchesReference holds the fast-path decoder to the plain
// varint loops it replaced, on every fast-path boundary and on every
// truncation of a valid tile: identical records, bytes consumed and error
// text, with the checksum verified and skipped alike.
func TestDecodeMatchesReference(t *testing.T) {
	inputs := boundaryTiles()
	// Encoder-built tiles around the same boundaries, and every truncation
	// of them: of the tile bytes (header and framing errors) and of the
	// payload re-framed with a valid header and checksum (payload-end
	// errors, mid-varint included).
	var enc Encoder
	rng := rand.New(rand.NewSource(10))
	for _, edges := range [][]core.Edge{
		{{Src: 0x7f, Dst: 0x80}, {Src: 0x7f + 64, Dst: 1<<14 - 1}, {Src: 0x7f, Dst: 1 << 14}, {Src: 0x7f + 8192, Dst: 1<<21 - 1}, {Src: 0x7f, Dst: 1 << 21}},
		{{Src: math.MaxUint32, Dst: math.MaxUint32, Weight: 1}, {Src: 0, Dst: 0, Weight: 2}, {Src: 1 << 31, Dst: 1 << 21, Weight: 3}},
		clusteredEdges(rng, 200),
		constWeights(clusteredEdges(rng, 150)),
	} {
		valid, _, err := enc.Encode(nil, edges)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, valid)
		for cut := 0; cut < len(valid); cut++ {
			inputs = append(inputs, valid[:cut])
		}
		_, countBytes := binary.Uvarint(valid[1:])
		_, plenBytes := binary.Uvarint(valid[1+countBytes:])
		payload := valid[1+countBytes+plenBytes : len(valid)-4]
		for cut := 0; cut < len(payload); cut++ {
			inputs = append(inputs, blocksTile(len(edges), payload[:cut]))
		}
	}
	// Random block columns over random span widths, and random whole
	// payloads, over the bytes that steer the decoders.
	steer := []byte{0x00, 0x01, 0x3f, 0x40, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for i := 0; i < 4000; i++ {
		p := make([]byte, rng.Intn(24))
		for j := range p {
			p[j] = steer[rng.Intn(len(steer))]
		}
		if i%4 == 0 {
			inputs = append(inputs, blocksTile(1+rng.Intn(4), p))
		} else {
			width := uint32(rng.Int63n(1 << rng.Intn(33)))
			inputs = append(inputs, oneBlock(1+rng.Intn(4), width, p, i%2 == 0))
		}
	}
	for i, data := range inputs {
		for _, verify := range []bool{true, false} {
			if err := matchReference(data, verify); err != nil {
				t.Fatalf("input %d (% x), verify=%v: %v", i, data, verify, err)
			}
		}
	}
}

// constWeights gives every record of edges the weight 0.5.
func constWeights(edges []core.Edge) []core.Edge {
	for i := range edges {
		edges[i].Weight = 0.5
	}
	return edges
}

// clusteredEdges is a run shaped like a 2PS-relabeled tile: sources in a
// band of 20 000, so deltas take one to three bytes and fast paths
// interleave with the fallback; destinations below 2²¹.
func clusteredEdges(rng *rand.Rand, n int) []core.Edge {
	edges := make([]core.Edge, n)
	for i := range edges {
		edges[i] = core.Edge{
			Src:    core.VertexID(5000 + rng.Intn(20000)),
			Dst:    core.VertexID(rng.Intn(1 << 21)),
			Weight: rng.Float32(),
		}
	}
	return edges
}

// TestDecodeAcceptsPreChecksumTiles: Decode reads only what Encode writes,
// so a tile without its checksum — the flag bit cleared, with or without the
// trailer — is rejected, with verification on and off.
func TestDecodeAcceptsPreChecksumTiles(t *testing.T) {
	edges := []core.Edge{{Src: 5, Dst: 6, Weight: 2}, {Src: 5, Dst: 7, Weight: 2}}
	var enc Encoder
	buf, _, err := enc.Encode(nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	unflagged := append([]byte(nil), buf...)
	unflagged[0] &^= FlagCRC
	for name, tile := range map[string][]byte{"trailer dropped": unflagged[:len(unflagged)-4], "trailer kept": unflagged} {
		for _, verify := range []bool{true, false} {
			if _, _, _, err := DecodeVerify(tile, nil, verify, nil); err == nil || !strings.Contains(err.Error(), "carries no checksum") {
				t.Errorf("%s, verify %v: a tile without FlagCRC decoded with error %v", name, verify, err)
			}
		}
	}
}

// TestPartialDecodeKeepsNeededBlocks: with a block predicate, DecodeVerify
// returns exactly the full decode's blocks whose span the predicate
// accepts, in order, and counts the rest as skipped — over block-encoded
// and raw-fallback tiles of one to several blocks, short last blocks, narrow
// and wide spans, constant and raw weights, and predicates that keep every
// block, none, or some.
func TestPartialDecodeKeepsNeededBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var enc Encoder
	encodings := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5*BlockRecs)
		edges := make([]core.Edge, n)
		wide := trial%3 == 0
		for i := range edges {
			src := uint32(1000 + 64*(i/BlockRecs) + rng.Intn(48))
			if wide {
				src = rng.Uint32()
			}
			edges[i] = core.Edge{Src: core.VertexID(src), Dst: core.VertexID(rng.Intn(1 << 20)), Weight: rng.Float32()}
		}
		if trial%2 == 0 {
			constWeights(edges)
		}
		tile, blocks, err := enc.Encode(nil, edges)
		if err != nil {
			t.Fatal(err)
		}
		encodings[blocks]++
		cut := rng.Uint32()
		for name, need := range map[string]func(core.SrcSpan) bool{
			"all":  func(core.SrcSpan) bool { return true },
			"none": func(core.SrcSpan) bool { return false },
			"some": func(s core.SrcSpan) bool { return uint32(s.Lo)^cut&4 == 0 },
			"low":  func(s core.SrcSpan) bool { return uint32(s.Lo) < 1000+64*uint32(cut%5) },
		} {
			for _, verify := range []bool{true, false} {
				if err := matchPartial(tile, verify, need); err != nil {
					t.Fatalf("trial %d (%d records, blocks %v), %s, verify %v: %v", trial, n, blocks, name, verify, err)
				}
			}
		}
	}
	if encodings[true] == 0 || encodings[false] == 0 {
		t.Fatalf("encodings drawn: %v, want both", encodings)
	}
}

// TestPartialDecodeVerifiesSkippedBlocks: the checksum covers the whole payload and
// is checked before any block is decoded, so a byte flipped inside a block
// the predicate skips is still storage.ErrCorrupted, in both encodings.
func TestPartialDecodeVerifiesSkippedBlocks(t *testing.T) {
	for _, wide := range []bool{false, true} {
		edges := make([]core.Edge, 3*BlockRecs)
		rng := rand.New(rand.NewSource(45))
		for i := range edges {
			src := uint32(100*(i/BlockRecs) + rng.Intn(50))
			if wide {
				src = rng.Uint32()
			}
			edges[i] = core.Edge{Src: core.VertexID(src), Dst: core.VertexID(rng.Uint32()), Weight: rng.Float32()}
		}
		var enc Encoder
		tile, blocks, err := enc.Encode(nil, edges)
		if err != nil || blocks == wide {
			t.Fatalf("wide %v: encoded with blocks %v, err %v", wide, blocks, err)
		}
		// Keep the first block only; the last byte before the CRC belongs
		// to the last block, which is skipped.
		first := core.NewSrcSpan(edges[0].Src)
		for _, ed := range edges[:BlockRecs] {
			first.Add(ed.Src)
		}
		need := func(s core.SrcSpan) bool { return s == first }
		recs, skipped, _, err := DecodeVerify(tile, nil, true, need)
		if err != nil || len(recs) != BlockRecs || skipped != 2*BlockRecs {
			t.Fatalf("wide %v: clean partial decode kept %d, skipped %d: %v", wide, len(recs), skipped, err)
		}
		tile[len(tile)-crcBytes-1] ^= 0x10
		if _, _, _, err := DecodeVerify(tile, nil, true, need); !errors.Is(err, storage.ErrCorrupted) {
			t.Fatalf("wide %v: a flipped byte in a skipped block decoded with error %v, want ErrCorrupted", wide, err)
		}
	}
}

// dirTestColumns are the columns of a 65-record tile: block 0 holds 63
// records of its lo and then one of lo+3, offsets packed in two bits, each
// to destination 1; block 1 one record of its lo, in no bits, to the
// two-byte destination 200.
func dirTestColumns() (b0, b1 []byte) {
	offs := make([]uint64, BlockRecs)
	offs[BlockRecs-1] = 3
	b0 = packOffsets(2, offs...)
	for range BlockRecs {
		b0 = binary.AppendUvarint(b0, 1)
	}
	return b0, binary.AppendUvarint(nil, 200)
}

// dirTile frames a constant-weight FlagBlocks tile of BlockRecs+1 records
// over the columns b0 and b1 (dirTestColumns) with the given directory
// entries — (lo delta, hi−lo, end offset) each — and garbage zero bytes
// after them.
func dirTile(entries [][3]uint64, garbage int, b0, b1 []byte) []byte {
	var dir []byte
	for _, e := range entries {
		dir = binary.AppendVarint(dir, int64(e[0]))
		dir = binary.AppendUvarint(dir, e[1])
		dir = binary.AppendUvarint(dir, e[2])
	}
	dir = append(dir, make([]byte, garbage)...)
	p := []byte{weightConst, 0, 0, 0x80, 0x3f}
	p = binary.AppendUvarint(p, uint64(len(dir)))
	p = append(append(append(p, dir...), b0...), b1...)
	return blocksTile(BlockRecs+1, p)
}

// TestDirectoryRejects: a block directory whose entries point past the
// payload, overlap or leave bytes over is an error whether the predicate
// decodes the block or skips it; a span that misses a source of its block
// is an error when the block is decoded.
func TestDirectoryRejects(t *testing.T) {
	b0, b1 := dirTestColumns()
	tile := func(entries [][3]uint64, garbage int) []byte { return dirTile(entries, garbage, b0, b1) }
	l0, l1 := uint64(len(b0)), uint64(len(b0)+len(b1))
	good := tile([][3]uint64{{5, 3, l0}, {4, 0, l1}}, 0)
	if err := matchPartial(good, true, func(s core.SrcSpan) bool { return s.Lo == 9 }); err != nil {
		t.Fatalf("hand-built tile: %v", err)
	}
	if recs, _, err := Decode(good, nil); err != nil || len(recs) != BlockRecs+1 || recs[BlockRecs].Src != 9 {
		t.Fatalf("hand-built tile decoded to %d records: %v", len(recs), err)
	}
	// Each case and the error it must give with every block decoded and
	// with every block skipped; a span that misses a source is only seen by
	// a decode of the block ("" expects no error).
	cases := []struct {
		name             string
		data             []byte
		decoded, skipped string
	}{
		{"past the payload", tile([][3]uint64{{5, 3, l0}, {4, 0, l1 + 1}}, 0), "past the", "past the"},
		{"overlapping", tile([][3]uint64{{5, 3, l0}, {4, 0, l0}}, 0), "overlapping", "overlapping"},
		{"backwards", tile([][3]uint64{{5, 3, l0}, {4, 0, l0 - 1}}, 0), "overlapping", "overlapping"},
		{"short", tile([][3]uint64{{5, 3, l0}, {4, 0, l1 - 1}}, 0), "malformed destination", "trailing garbage in tile payload"},
		{"directory garbage", tile([][3]uint64{{5, 3, l0}, {4, 0, l1}}, 1), "trailing garbage in block directory", "trailing garbage in block directory"},
		{"directory too long", blocksTile(BlockRecs+1, []byte{weightConst, 0, 0, 0x80, 0x3f, 0x40}), "block directory of", "block directory of"},
		{"span overflow", tile([][3]uint64{{5, math.MaxUint32, l0}, {4, 0, l1}}, 0), "overflows 32 bits", "overflows 32 bits"},
		{"narrow span", tile([][3]uint64{{5, 2, l0}, {4, 0, l1}}, 0), "outside its block's span", ""},
	}
	for _, c := range cases {
		for _, skip := range []bool{false, true} {
			want := c.decoded
			if skip {
				want = c.skipped
			}
			_, _, _, err := DecodeVerify(c.data, nil, true, func(core.SrcSpan) bool { return !skip })
			if (err == nil) != (want == "") || err != nil && !strings.Contains(err.Error(), want) {
				t.Errorf("%s (skipping %v): error %v, want one about %q", c.name, skip, err, want)
			}
		}
	}
}
