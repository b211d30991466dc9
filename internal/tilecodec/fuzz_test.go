package tilecodec

import (
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeTile fuzzes the tile decoder: whatever the input bytes —
// malformed headers, truncated payloads, overflowing varints, hostile
// length fields and directories — Decode must either return a clean error
// or a well-formed batch, never panic, never over-read, and never
// mis-decode: it must agree with referenceDecode (the plain varint loops)
// on records, bytes consumed and error text, checksum verified and skipped
// — skipping lets mutated payloads reach the directory and ID decoders —
// and anything it accepts must survive a re-encode/re-decode round trip
// bit-identically. A decode through a block predicate drawn from the input
// must never panic either, and where the full decode succeeds it must
// return exactly the full decode's blocks whose span the predicate accepts. Seed cases
// cover valid tiles of both encodings, the malformed shapes we know about
// and boundaryTiles' fast-path edges; the checked-in corpus under
// testdata/fuzz/FuzzDecodeTile adds regression inputs (older-format tiles
// among them, which must be rejected cleanly).
func FuzzDecodeTile(f *testing.F) {
	var enc Encoder
	small, _, _ := enc.Encode(nil, []core.Edge{
		{Src: 1, Dst: 2, Weight: 0.5}, {Src: 3, Dst: 4, Weight: 0.5},
	})
	clustered := make([]core.Edge, 64)
	for i := range clustered {
		clustered[i] = core.Edge{Src: core.VertexID(100 + i%7), Dst: core.VertexID(i * 31), Weight: float32(i)}
	}
	coded, _, _ := enc.Encode(nil, clustered)
	sparse := []core.Edge{{Src: 0, Dst: math.MaxUint32, Weight: float32(math.NaN())}, {Src: math.MaxUint32, Dst: 0}}
	raw, _, _ := enc.Encode(nil, sparse)

	seeds := [][]byte{
		{},
		{FlagBlocks | FlagCRC},
		{FlagRaw | FlagCRC, 0x01, 0x0c}, // raw header, payload missing
		{FlagBlocks | FlagCRC, 0xff, 0xff, 0xff, 0xff, 0x7f}, // record count overflows the cap
		{0x42, 0x01, 0x00},          // unknown flag
		{FlagBlocks, 0x01, 0x00},    // no checksum flag
		blocksTile(1, []byte{0x80}), // unterminated varint payload
		small, coded, raw,
		small[:len(small)-1], coded[:3], raw[:5], // truncations
		append(append([]byte{}, small...), 0xff), // trailing byte after a valid tile
	}
	seeds = append(seeds, boundaryTiles()...)
	// Multi-block tiles, valid and with directories that overlap or point
	// past the payload.
	long := make([]core.Edge, 2*BlockRecs+5)
	for i := range long {
		long[i] = core.Edge{Src: core.VertexID(500 + i/3), Dst: core.VertexID(i * 131), Weight: 2}
	}
	multi, _, _ := enc.Encode(nil, long)
	b0, b1 := dirTestColumns()
	l0, l1 := uint64(len(b0)), uint64(len(b0)+len(b1))
	seeds = append(seeds, multi,
		dirTile([][3]uint64{{5, 3, l0}, {4, 0, l1}}, 0, b0, b1),
		dirTile([][3]uint64{{5, 3, l0}, {4, 0, l0}}, 0, b0, b1),     // block 1 overlaps block 0
		dirTile([][3]uint64{{5, 3, l0}, {4, 0, l1 + 1}}, 0, b0, b1)) // block 1 ends past the payload
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cut := uint32(len(data))
		need := func(s core.SrcSpan) bool { return (uint32(s.Lo)+uint32(s.Hi)+cut)%3 != 0 }
		for _, verify := range []bool{true, false} {
			if err := matchReference(data, verify); err != nil {
				t.Fatalf("verify=%v: %v", verify, err)
			}
			if err := matchPartial(data, verify, need); err != nil {
				t.Fatalf("verify=%v: %v", verify, err)
			}
		}
		edges, consumed, err := Decode(data, nil)
		if err != nil {
			return // rejected inputs just need to fail cleanly
		}
		if consumed <= 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if len(edges) == 0 || len(edges) > MaxTileRecs {
			t.Fatalf("accepted a tile of %d records", len(edges))
		}
		// Anything accepted must re-encode into a tile that decodes back to
		// the same records — the codec's canonical-form invariant. (The
		// bytes themselves may differ: a hand-built raw tile of compressible
		// records re-encodes block-coded.)
		var enc Encoder
		re, _, err := enc.Encode(nil, edges)
		if err != nil {
			t.Fatalf("re-encode of accepted tile: %v", err)
		}
		again, n2, err := Decode(re, nil)
		if err != nil {
			t.Fatalf("re-decode of own output: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(re))
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip: %d records, want %d", len(again), len(edges))
		}
		for i := range edges {
			a, b := again[i], edges[i]
			if a.Src != b.Src || a.Dst != b.Dst ||
				math.Float32bits(a.Weight) != math.Float32bits(b.Weight) {
				t.Fatalf("record %d: %+v != %+v", i, a, b)
			}
		}
		// Decode must not have read past what it claims to have consumed:
		// re-decoding the consumed prefix alone must succeed identically.
		if _, n3, err := Decode(data[:consumed], nil); err != nil || n3 != consumed {
			t.Fatalf("prefix re-decode: consumed %d err %v, want %d nil", n3, err, consumed)
		}
	})
}
