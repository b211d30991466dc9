package core

// frontier.go is the frontier subsystem behind selective scheduling.
//
// X-Stream's central trade-off (§3.2, §5.3) is streaming *every* edge each
// iteration in exchange for sequential bandwidth. Frontier algorithms —
// BFS, SSSP, the converging tail of WCC — pay for edges whose sources are
// provably inactive (Stats.WastedEdges measures exactly this). A Frontier
// is a bitset over execution vertex IDs that the engines maintain across
// iterations: a vertex is active in iteration i+1 iff it received an update
// in iteration i (Init seeds iteration 0 through FrontierProgram). Engines
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
	"sync/atomic"
)

// FrontierProgram is the opt-in contract for selective scheduling. A
// program implementing it asserts: Scatter(e, src) returns false — sends no
// update — whenever the source vertex received no update in the previous
// iteration (and, in iteration 0, whenever InitiallyActive reported false).
// Under that assertion the engines may skip streaming any edge whose source
// is outside the frontier without changing any result.
//
// Frontier algorithms qualify because their Scatter already gates on a
// per-vertex "updated last iteration" mark: BFS, SSSP and WCC opt in.
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
type Frontier struct {
	n    int64
	bits []uint64
}

// NewFrontier returns an empty frontier over n vertices.
func NewFrontier(n int64) *Frontier {
	return &Frontier{n: n, bits: make([]uint64, (n+63)/64)}
}

// Len returns the number of vertices the frontier ranges over.
func (f *Frontier) Len() int64 { return f.n }

// Mark sets vertex v active. Safe for concurrent use.
func (f *Frontier) Mark(v VertexID) {
	atomic.OrUint64(&f.bits[v>>6], 1<<(v&63))
}

// Active reports whether vertex v is active.
func (f *Frontier) Active(v VertexID) bool {
	return f.bits[v>>6]>>(v&63)&1 != 0
}

// Clear deactivates every vertex.
func (f *Frontier) Clear() {
	clear(f.bits)
}

// Words exposes the frontier's backing bit words (word i holds vertices
// [64i, 64i+64), LSB first) for checkpoint serialization. The slice
// aliases live state: callers must not retain it across Mark/Clear.
func (f *Frontier) Words() []uint64 { return f.bits }

// LoadWords overwrites the frontier from checkpoint words. The word count
// must match the frontier's own.
func (f *Frontier) LoadWords(w []uint64) error {
	if len(w) != len(f.bits) {
		return fmt.Errorf("core: frontier restore: %d words, want %d", len(w), len(f.bits))
	}
	copy(f.bits, w)
	return nil
}

// MarkAll activates every vertex — the dense state a program without a
// frontier contract implicitly runs in.
func (f *Frontier) MarkAll() {
	for i := range f.bits {
		f.bits[i] = ^uint64(0)
	}
	if rem := uint(f.n) & 63; rem != 0 && len(f.bits) > 0 {
		f.bits[len(f.bits)-1] &= 1<<rem - 1
	}
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
// min/max source vertex ID of one fixed-size run of edges. Both engines
// index their edge tiles with it — the in-memory engine over
// streambuf.BucketTiles runs, the out-of-core engine over the runs its
// pre-processing shuffle writes to the edge files — so the skip test lives
// in one place. Min/max is deliberately small (8 bytes per tile) and
// conservative: a scattered frontier can intersect a wide span without
// any active source actually being in the tile.
type SrcSpan struct {
	Lo, Hi VertexID
}

// NewSrcSpan starts a span at a single source.
func NewSrcSpan(v VertexID) SrcSpan { return SrcSpan{Lo: v, Hi: v} }

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
// partial count routes the partition through tile-granular skipping.
func (f *Frontier) CountByPartition(s Split) []int64 {
	out := make([]int64, s.K)
	for p := range out {
		lo, hi := s.Range(p, f.n)
		out[p] = f.CountRange(lo, hi)
	}
	return out
}

// Schedule is the frontier schedule of one run — the part of a JobRun both
// implementations (jobRun here, the out-of-core engine's spillable run)
// embed rather than copy: which partitions and tiles the iteration's scatter
// needs, the skips the engine reports back, the frontier's checkpoint view,
// and the swap after gather. A dense schedule (no frontier: the program has
// no FrontierProgram contract, is phased, or Selective is off) needs
// everything and records nothing.
type Schedule struct {
	part     Split
	nv       int64
	cur, nxt *Frontier // scattered this iteration / receivers for the next
	active   []int64   // cur's per-partition counts, for one scatter

	skipEdges, skipParts, skipTiles atomic.Int64
}

// InitSchedule sizes the schedule for nv vertices under part, with empty
// frontiers when selective and dense otherwise.
func (s *Schedule) InitSchedule(part Split, nv int64, selective bool) {
	s.part, s.nv, s.cur, s.nxt, s.active = part, nv, nil, nil, nil
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

// Recount refreshes the per-partition active counts the Needs methods
// answer from; call once per iteration before the scatter.
func (s *Schedule) Recount() {
	if s.cur != nil {
		s.active = s.cur.CountByPartition(s.part)
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

// SkipPartition implements JobRun. An edgeless partition elides nothing, so
// it is not counted.
func (s *Schedule) SkipPartition(chunkEdges int64) {
	if chunkEdges > 0 {
		s.skipEdges.Add(chunkEdges)
		s.skipParts.Add(1)
	}
}

// SkipTiles implements JobRun.
func (s *Schedule) SkipTiles(edges, tiles int64) {
	s.skipEdges.Add(edges)
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
