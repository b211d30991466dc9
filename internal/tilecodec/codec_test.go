package tilecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// exact consumption. Returns whether the delta encoding was used.
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
// batch (small source deltas, bounded destinations — what a 2PS-relabeled
// shuffle run looks like) the encoded tile must be well under the raw
// size, and the encoder must report the delta encoding.
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
		t.Fatalf("adversarial tile claims delta encoding")
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
		"short":       {FlagDelta | FlagCRC},
		"bad-flag":    {0x7f, 0x01, 0x00},
		"no-checksum": {FlagDelta, 0x01, 0x00},
		"zero-count":  {FlagDelta | FlagCRC, 0x00, 0x00},
		"huge-count":  {FlagDelta | FlagCRC, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00},
		"payload-gap": {FlagDelta | FlagCRC, 0x01, 0x40},                                    // claims 64 payload bytes, has none
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
				got, _, _ := DecodeVerify(mut, nil, true)
				t.Fatalf("bit flip at byte %d bit %d decoded silently: %+v", i, b, got)
			}
		}
	}
	// The unmutated tile still decodes, and skipping verification is
	// framing-identical.
	if _, n, err := Decode(buf, nil); err != nil || n != len(buf) {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	if _, n, err := DecodeVerify(buf, nil, false); err != nil || n != len(buf) {
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
	if _, _, err := DecodeVerify(buf, nil, false); err != nil {
		t.Fatalf("unverified decode of payload corruption: %v", err)
	}
}

// referenceDecode is DecodeVerify without the fast paths: every ID goes
// through binary.Varint/Uvarint. It is the oracle TestDecodeMatchesReference
// and FuzzDecodeTile hold the decoder to — same records, same bytes
// consumed, same error text.
func referenceDecode(data []byte, out []core.Edge, verify bool) ([]core.Edge, int, error) {
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

	q := 0
	prev := uint32(0)
	for i := range out {
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

// matchReference decodes data with DecodeVerify and referenceDecode and
// reports the first way they differ: accept/reject, error text, bytes
// consumed, or any record bit.
func matchReference(data []byte, verify bool) error {
	got, gn, gerr := DecodeVerify(data, nil, verify)
	want, wn, werr := referenceDecode(data, nil, verify)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		return fmt.Errorf("decode error %v, reference %v", gerr, werr)
	}
	if gn != wn || len(got) != len(want) {
		return fmt.Errorf("decoded %d records in %d bytes, reference %d in %d", len(got), gn, len(want), wn)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Src != w.Src || g.Dst != w.Dst || math.Float32bits(g.Weight) != math.Float32bits(w.Weight) {
			return fmt.Errorf("record %d: %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// deltaTile frames a hand-built FlagDelta payload claiming n records, with
// a valid checksum, so the payload decoder sees it exactly as written.
func deltaTile(n int, payload []byte) []byte { return frameTile(FlagDelta, n, payload) }

// frameTile frames a hand-built payload of the given encoding claiming n
// records, with a valid checksum.
func frameTile(encoding byte, n int, payload []byte) []byte {
	tile := []byte{encoding | FlagCRC}
	tile = binary.AppendUvarint(tile, uint64(n))
	tile = binary.AppendUvarint(tile, uint64(len(payload)))
	tile = append(tile, payload...)
	return binary.LittleEndian.AppendUint32(tile, storage.Checksum(payload))
}

// constWeight is a constant-weight block: the mode byte and one float32.
var constWeight = []byte{weightConst, 0, 0, 0x80, 0x3f}

// boundaryTiles are delta tiles whose IDs sit on and around every fast-path
// boundary — value boundaries, non-minimal encodings, 32-bit overflows and
// varints that end at or run past the payload's last byte — encoded both
// in one-record tiles and in runs long enough that the fast paths have room
// to fire.
func boundaryTiles() [][]byte {
	dsts := []uint64{0, 1, 0x7f, 0x80, 0x81, 1<<14 - 1, 1 << 14, 1<<14 + 1,
		1<<21 - 1, 1 << 21, 1<<21 + 1, 1<<28 - 1, 1 << 28, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint64}
	deltas := []int64{0, 1, -1, 63, -63, 64, -64, 65, -65, 8191, -8191, 8192, -8192, 8193, -8193,
		1<<20 - 1, -1 << 20, math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64, math.MinInt64}
	// Non-minimal and unterminated byte strings, used as a source delta
	// and as a destination.
	odd := [][]byte{
		{0x80, 0x00}, {0xff, 0x00}, {0x80, 0x80, 0x00}, {0xff, 0xff, 0x00}, {0x81, 0x80, 0x00},
		{0x80, 0x80, 0x80, 0x00}, {0xff, 0xff, 0xff, 0x7f}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		{0x80}, {0x80, 0x80}, {0x80, 0x80, 0x80}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	var tiles [][]byte
	add := func(n int, parts ...[]byte) {
		var p []byte
		for _, b := range parts {
			p = append(p, b...)
		}
		tiles = append(tiles, deltaTile(n, p))
	}
	one := binary.AppendVarint(nil, 1)
	for _, v := range dsts {
		d := binary.AppendUvarint(nil, v)
		add(1, one, d, constWeight)
		add(3, one, one, one, d, d, d, constWeight)
		add(1, one, d) // the destination ends on the payload's last byte
	}
	for _, v := range deltas {
		d := binary.AppendVarint(nil, v)
		add(1, d, one, constWeight)
		add(3, d, d, d, one, one, one, constWeight)
		add(1, d) // the delta ends on the payload's last byte
	}
	for _, b := range odd {
		add(1, b, one, constWeight)
		add(2, b, b, one, one, constWeight)
		add(1, one, b, constWeight)
		add(2, one, one, b, b, constWeight)
		add(1, b)
		add(1, one, b)
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
			inputs = append(inputs, deltaTile(len(edges), payload[:cut]))
		}
	}
	// Random payloads over the bytes that steer the varint decoders.
	steer := []byte{0x00, 0x01, 0x3f, 0x40, 0x7f, 0x80, 0x81, 0xfe, 0xff}
	for i := 0; i < 4000; i++ {
		p := make([]byte, rng.Intn(24))
		for j := range p {
			p[j] = steer[rng.Intn(len(steer))]
		}
		inputs = append(inputs, deltaTile(1+rng.Intn(4), p))
	}
	for i, data := range inputs {
		for _, verify := range []bool{true, false} {
			if err := matchReference(data, verify); err != nil {
				t.Fatalf("input %d (% x), verify=%v: %v", i, data, verify, err)
			}
		}
	}
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
			if _, _, err := DecodeVerify(tile, nil, verify); err == nil || !strings.Contains(err.Error(), "carries no checksum") {
				t.Errorf("%s, verify %v: a tile without FlagCRC decoded with error %v", name, verify, err)
			}
		}
	}
}
