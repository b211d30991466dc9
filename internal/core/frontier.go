package core

// frontier.go is the frontier subsystem behind selective scheduling.
//
// X-Stream's central trade-off (§3.2, §5.3) is streaming *every* edge each
// iteration in exchange for sequential bandwidth. Frontier algorithms —
// BFS, SSSP, the converging tail of WCC — pay for edges whose sources are
// provably inactive (Stats.WastedEdges measures exactly this). A Frontier
// is a bitset over execution vertex IDs that the engines maintain across
// iterations: a vertex is active in iteration i+1 iff an update it received
// in iteration i changed its state — its Gather left different bytes
// behind (Init seeds iteration 0 through FrontierProgram). Engines
// with Config.Selective enabled consult per-partition active counts to skip
// whole partition edge scans — on the out-of-core engine, whole edge-file
// reads — and per-tile source summaries to skip at sub-chunk granularity
// inside partially active partitions. Skips are pure elision: by the
// FrontierProgram contract every skipped edge would have produced no
// update, so results are bit-identical with selective on or off (the
// equivalence suite proves it across engines and partitioners).

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// FrontierProgram is the opt-in contract for selective scheduling. A
// program implementing it asserts: Scatter(e, src) returns false — sends no
// update — whenever the previous iteration's gather left the source
// vertex's state unchanged, byte for byte, whether or not it received
// updates (and, in iteration 0, whenever InitiallyActive reported false).
// Under that assertion the engines may skip streaming any edge whose source
// is outside the frontier without changing any result. A frontier may hold
// more than the changed vertices — a snapshot that marked every receiver,
// say — but never fewer: an extra source sends nothing.
//
// Frontier algorithms qualify because their Scatter already gates on a
// per-vertex "changed last iteration" stamp that Gather writes only when it
// improves the state: BFS, SSSP and WCC opt in.
// Dense algorithms (PageRank, SpMV, HyperANF, Conductance) scatter from
// every vertex each iteration and must not implement it; they simply run
// all-active. Programs whose phase hooks (PhasedProgram.EndIteration,
// IterationStarter) can re-activate a vertex *without* it receiving an
// update must not implement FrontierProgram either — the engines
// additionally refuse selective mode for PhasedPrograms, whose EndIteration
// may mutate arbitrary vertex state through the VertexView.
type FrontierProgram[V any] interface {
	// InitiallyActive reports whether the vertex may produce updates in
	// iteration 0, given the state Init just assigned it (a BFS/SSSP root;
	// every vertex for WCC's all-start formulation).
	InitiallyActive(id VertexID, v *V) bool
}

// SelectiveProgram returns prog's frontier contract when a run of it may be
// scheduled selectively, nil when it must stream densely: selective is off,
// the program has no contract, or it is phased — its EndIteration may
// activate vertices through the VertexView without any update the frontier
// could see.
func SelectiveProgram[V, M any](prog Program[V, M], selective bool) FrontierProgram[V] {
	fp, ok := any(prog).(FrontierProgram[V])
	if _, phased := any(prog).(PhasedProgram[V, M]); !selective || !ok || phased {
		return nil
	}
	return fp
}

// Frontier is a bitset of active vertices in execution (relabeled) ID
// space. Mark is safe for concurrent use — gather phases mark destinations
// from many goroutines — while the read-side methods assume marking has
// quiesced (the engines separate phases with joins, which establishes the
// necessary happens-before).
//
// Beside the bits a frontier lists the words it touched: the words holding
// an active vertex, each listed once. Clear zeroes only those, and the
// per-partition counts and the tile plan walk only those, so a frontier
// costs what it holds, not what it ranges over.
type Frontier struct {
	n    int64
	bits []uint64
	// touched[:nTouched] are the non-zero words of bits, in marking order
	// until touchedWords sorts them. Every word enters at most once between
	// Clears, so the list never outgrows len(bits).
	touched  []uint32
	nTouched atomic.Int64
}

// NewFrontier returns an empty frontier over n vertices.
func NewFrontier(n int64) *Frontier {
	words := (n + 63) / 64
	return &Frontier{n: n, bits: make([]uint64, words), touched: make([]uint32, words)}
}

// Len returns the number of vertices the frontier ranges over.
func (f *Frontier) Len() int64 { return f.n }

// Mark sets vertex v active. Safe for concurrent use: of the marks that
// find a word zero, exactly one swaps it from 0 and lists the word. It is
// a compare-and-swap loop rather than a test of atomic.OrUint64's old
// value: with the latter inlined into another package, the go1.24.0 amd64
// compiler reused the register holding the word index for the OR's
// operand, and listed the mask instead of the word.
func (f *Frontier) Mark(v VertexID) {
	w, bit := v>>6, uint64(1)<<(v&63)
	word := &f.bits[w]
	for {
		old := atomic.LoadUint64(word)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(word, old, old|bit) {
			if old == 0 {
				f.touched[f.nTouched.Add(1)-1] = uint32(w)
			}
			return
		}
	}
}

// Clear deactivates every vertex, zeroing only the touched words.
func (f *Frontier) Clear() {
	for _, w := range f.touchedList() {
		f.bits[w] = 0
	}
	f.nTouched.Store(0)
}

// touchedList returns the touched words in their current order.
func (f *Frontier) touchedList() []uint32 { return f.touched[:f.nTouched.Load()] }

// touchedWords returns the index of every word holding an active vertex
// (word i holds vertices [64i, 64i+64)), ascending. It sorts the frontier's
// own list in place and the result aliases it: call it once marking has
// quiesced, and do not retain it across Mark or Clear.
func (f *Frontier) touchedWords() []uint32 {
	w := f.touchedList()
	slices.Sort(w)
	return w
}

// Words exposes the frontier's backing bit words (word i holds vertices
// [64i, 64i+64), LSB first) for checkpoint serialization. The slice
// aliases live state: callers must not retain it across Mark/Clear, nor
// write to it (LoadWords is the one way in).
func (f *Frontier) Words() []uint64 { return f.bits }

// LoadWords overwrites the frontier from checkpoint words, relisting the
// touched words with one scan. The word count must match the frontier's
// own.
func (f *Frontier) LoadWords(w []uint64) error {
	if len(w) != len(f.bits) {
		return fmt.Errorf("core: frontier restore: %d words, want %d", len(w), len(f.bits))
	}
	copy(f.bits, w)
	n := 0
	for i, word := range f.bits {
		if word != 0 {
			f.touched[n] = uint32(i)
			n++
		}
	}
	f.nTouched.Store(int64(n))
	return nil
}

// Count returns the number of active vertices.
func (f *Frontier) Count() int64 { return f.CountRange(0, f.n) }

// CountRange returns the number of active vertices with ID in [lo, hi).
func (f *Frontier) CountRange(lo, hi int64) int64 {
	if lo < 0 {
		lo = 0
	}
	if hi > f.n {
		hi = f.n
	}
	if lo >= hi {
		return 0
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	var n int64
	for w := wLo; w <= wHi; w++ {
		word := f.bits[w]
		if w == wLo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == wHi {
			if rem := uint(hi) & 63; rem != 0 {
				word &= 1<<rem - 1
			}
		}
		n += int64(bits.OnesCount64(word))
	}
	return n
}

// AnyInRange reports whether any vertex in [lo, hi) is active — the tile
// test of selective streaming: a tile whose [min, max] source summary
// contains no active vertex is skipped entirely.
func (f *Frontier) AnyInRange(lo, hi int64) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > f.n {
		hi = f.n
	}
	if lo >= hi {
		return false
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	for w := wLo; w <= wHi; w++ {
		word := f.bits[w]
		if w == wLo {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == wHi {
			if rem := uint(hi) & 63; rem != 0 {
				word &= 1<<rem - 1
			}
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// SrcSpan is the per-tile source summary of selective streaming: the
// min/max source vertex ID of one fixed-size run of edges (SpanOf). Both
// engines' tiles and the tile codec's blocks carry one, so the skip test
// lives in one place. Min/max is deliberately small (8 bytes per tile) and
// conservative: a scattered frontier can intersect a wide span without any
// active source actually being in the tile.
type SrcSpan struct {
	Lo, Hi VertexID
}

// NewSrcSpan starts a span at a single source.
func NewSrcSpan(v VertexID) SrcSpan { return SrcSpan{Lo: v, Hi: v} }

// SpanOf returns the source span of edges, which must not be empty: the
// span of a tile, or of one of a tile's blocks.
func SpanOf(edges []Edge) SrcSpan {
	s := NewSrcSpan(edges[0].Src)
	for _, ed := range edges[1:] {
		s.Add(ed.Src)
	}
	return s
}

// Add widens the span to include source v.
func (s *SrcSpan) Add(v VertexID) {
	if v < s.Lo {
		s.Lo = v
	}
	if v > s.Hi {
		s.Hi = v
	}
}

// Intersects reports whether any vertex in the span is active — false
// means the tile the span summarizes can be skipped outright.
func (s SrcSpan) Intersects(f *Frontier) bool {
	return f.AnyInRange(int64(s.Lo), int64(s.Hi)+1)
}

// CountByPartition returns the active-vertex count of every partition of
// the split — the per-iteration schedule selective engines consult: zero
// means the partition's whole edge chunk (or edge file) is skipped, a
// partial count routes the partition through tile-granular skipping. It
// walks the touched words only; a word that straddles a partition boundary
// (a partition narrower than 64 vertices, or not 64-aligned) is split with
// CountRange. The counts are written into dst's storage when it has room
// for s.K of them.
func (f *Frontier) CountByPartition(s Split, dst []int64) []int64 {
	out := dst[:0]
	if cap(out) < s.K {
		out = make([]int64, s.K)
	}
	out = out[:s.K]
	clear(out)
	per := s.PerPartition()
	for _, w := range f.touchedList() {
		lo := int64(w) << 6
		hi := min(lo+64, f.n)
		p0, p1 := int(lo/per), int((hi-1)/per)
		if p0 == p1 {
			out[p0] += int64(bits.OnesCount64(f.bits[w]))
			continue
		}
		for p := p0; p <= p1; p++ {
			plo, phi := s.Range(p, f.n)
			out[p] += f.CountRange(max(plo, lo), min(phi, hi))
		}
	}
	return out
}

// Schedule is the frontier schedule of one run — the part of jobRun that
// implements JobRun's scheduling half: which partitions and tiles the
// iteration's scatter needs, the skips the engine reports back, the
// frontier's checkpoint view, and the swap after gather. A dense schedule
// (no frontier: the program has no FrontierProgram contract, is phased, or
// Selective is off) needs everything and records nothing.
type Schedule struct {
	part     Split
	nv       int64
	cur, nxt *Frontier // scattered this iteration / receivers for the next
	active   []int64   // cur's per-partition counts, for one scatter
	words    []uint32  // cur's touched words, ascending, for one scatter

	skipEdges, skipParts, skipTiles atomic.Int64
}

// InitSchedule sizes the schedule for nv vertices under part, with empty
// frontiers when selective and dense otherwise.
func (s *Schedule) InitSchedule(part Split, nv int64, selective bool) {
	s.part, s.nv, s.cur, s.nxt, s.active, s.words = part, nv, nil, nil, nil, nil
	if selective {
		s.cur, s.nxt = NewFrontier(nv), NewFrontier(nv)
	}
}

// Dense implements JobRun: the run has no frontier and streams every
// partition.
func (s *Schedule) Dense() bool { return s.cur == nil }

// Seed marks v active for iteration 0. Safe for concurrent use; a no-op on
// a dense schedule.
func (s *Schedule) Seed(v VertexID) {
	if s.cur != nil {
		s.cur.Mark(v)
	}
}

// Receivers returns the frontier gather marks update receivers into, nil on
// a dense schedule.
func (s *Schedule) Receivers() *Frontier { return s.nxt }

// Recount refreshes the per-partition active counts and the touched words
// the Needs methods and ActiveWords answer from, in place; call once per
// iteration before the scatter.
func (s *Schedule) Recount() {
	if s.cur != nil {
		s.words = s.cur.touchedWords()
		s.active = s.cur.CountByPartition(s.part, s.active)
	}
}

// Advance makes the receivers the next iteration's frontier; call once the
// gather has quiesced.
func (s *Schedule) Advance() {
	if s.cur != nil {
		s.cur, s.nxt = s.nxt, s.cur
		s.nxt.Clear()
	}
}

// NeedsPartition implements JobRun.
func (s *Schedule) NeedsPartition(p int) bool { return s.cur == nil || s.active[p] > 0 }

// PartiallyActive implements JobRun.
func (s *Schedule) PartiallyActive(p int) bool {
	if s.cur == nil {
		return false
	}
	lo, hi := s.part.Range(p, s.nv)
	return s.active[p] > 0 && s.active[p] < hi-lo
}

// NeedsTile implements JobRun.
func (s *Schedule) NeedsTile(span SrcSpan) bool { return s.cur == nil || span.Intersects(s.cur) }

// ActiveWords implements JobRun.
func (s *Schedule) ActiveWords(p int) []uint32 {
	lo, hi := s.part.Range(p, s.nv)
	if s.cur == nil || lo >= hi {
		return nil
	}
	i, _ := slices.BinarySearch(s.words, uint32(lo>>6))
	j, _ := slices.BinarySearch(s.words, uint32((hi-1)>>6)+1)
	return s.words[i:j]
}

// Skip implements JobRun.
func (s *Schedule) Skip(edges, partitions, tiles int64) {
	s.skipEdges.Add(edges)
	s.skipParts.Add(partitions)
	s.skipTiles.Add(tiles)
}

// TakeSkips moves the skips reported since the last call onto st.
func (s *Schedule) TakeSkips(st *Stats) {
	st.EdgesSkipped += s.skipEdges.Swap(0)
	st.PartitionsSkipped += s.skipParts.Swap(0)
	st.TilesSkipped += s.skipTiles.Swap(0)
}

// FrontierWords implements Snapshotter.
func (s *Schedule) FrontierWords() []uint64 {
	if s.cur == nil {
		return nil
	}
	return s.cur.Words()
}

// RestoreFrontier implements Snapshotter.
func (s *Schedule) RestoreFrontier(words []uint64) error {
	if s.cur == nil {
		return fmt.Errorf("core: frontier restore on a dense run")
	}
	if err := s.cur.LoadWords(words); err != nil {
		return err
	}
	s.nxt.Clear()
	return nil
}
