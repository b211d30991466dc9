package core

// tileindex.go is the word→tile index of selective streaming: which tiles
// of a partition a frontier word can make needed, so an iteration plans
// the tiles of its frontier instead of testing every tile of the stream.

import (
	"slices"
	"unsafe"
)

// narrowWords is the widest source span, in 64-vertex frontier words, that
// a TileIndex files under each word it covers. A wider tile is a candidate
// every time, so an index costs at most narrowWords int32s per tile however
// wide the spans of a partitioning are.
const narrowWords = 8

// TileIndex maps, per partition of one edge stream, every frontier word
// (word i holds vertices [64i, 64i+64)) to the tiles whose source span
// covers it. Built once per stream from the tiles' SrcSpans; read-only
// afterwards, so any number of scatters may plan from it at once.
type TileIndex struct {
	parts []tileParts
}

// tileParts is one partition's index: its spans, the narrow tiles by word
// in CSR form, and the wide tiles.
type tileParts struct {
	spans []SrcSpan
	word0 int64   // the first word a narrow span covers
	start []int32 // the narrow tiles covering word word0+i are ids[start[i]:start[i+1]]
	ids   []int32
	wide  []int32 // tiles spanning more than narrowWords words, ascending
}

// NewTileIndex indexes spans, partition by partition: spans[p][i] is the
// source span of partition p's tile i. The index keeps the span slices.
func NewTileIndex(spans [][]SrcSpan) *TileIndex {
	ix := &TileIndex{parts: make([]tileParts, len(spans))}
	for p, sp := range spans {
		tp := &ix.parts[p]
		tp.spans = sp
		lo, hi := int64(-1), int64(-1) // word range of the narrow spans
		for i, s := range sp {
			w0, w1, narrow := spanWords(s)
			if !narrow {
				tp.wide = append(tp.wide, int32(i))
				continue
			}
			if lo < 0 || w0 < lo {
				lo = w0
			}
			hi = max(hi, w1)
		}
		if lo < 0 {
			continue
		}
		// Count each word's tiles into start[w-lo+1], sum them into offsets,
		// then place the ids in tile order through a copy of the offsets.
		tp.word0 = lo
		tp.start = make([]int32, hi-lo+2)
		for _, s := range sp {
			if w0, w1, narrow := spanWords(s); narrow {
				for w := w0; w <= w1; w++ {
					tp.start[w-lo+1]++
				}
			}
		}
		for i := 1; i < len(tp.start); i++ {
			tp.start[i] += tp.start[i-1]
		}
		tp.ids = make([]int32, tp.start[len(tp.start)-1])
		next := slices.Clone(tp.start[:len(tp.start)-1])
		for i, s := range sp {
			if w0, w1, narrow := spanWords(s); narrow {
				for w := w0; w <= w1; w++ {
					tp.ids[next[w-lo]] = int32(i)
					next[w-lo]++
				}
			}
		}
	}
	return ix
}

// spanWords returns the first and last frontier word s covers, and whether
// it covers at most narrowWords of them.
func spanWords(s SrcSpan) (w0, w1 int64, narrow bool) {
	w0, w1 = int64(s.Lo>>6), int64(s.Hi>>6)
	return w0, w1, w1-w0 < narrowWords
}

// Tiles returns the number of tiles of partition p.
func (ix *TileIndex) Tiles(p int) int { return len(ix.parts[p].spans) }

// Span returns the source span of partition p's tile i.
func (ix *TileIndex) Span(p, i int) SrcSpan { return ix.parts[p].spans[i] }

// Bytes returns the index's resident size, the spans it keeps included.
func (ix *TileIndex) Bytes() int64 {
	var n int64
	for _, tp := range ix.parts {
		n += int64(unsafe.Sizeof(SrcSpan{}))*int64(len(tp.spans)) + 4*int64(len(tp.start)+len(tp.ids)+len(tp.wide))
	}
	return n
}

// candidates appends to dst every tile of partition p that covers one of
// words, or is wide: a superset of the tiles whose span holds an active
// vertex when words are the frontier's touched words in p.
func (ix *TileIndex) candidates(p int, words []uint32, dst []int32) []int32 {
	tp := &ix.parts[p]
	for _, w := range words {
		if i := int64(w) - tp.word0; i >= 0 && i < int64(len(tp.start))-1 {
			dst = append(dst, tp.ids[tp.start[i]:tp.start[i+1]]...)
		}
	}
	return append(dst, tp.wide...)
}
