// Package streambuf implements X-Stream's stream buffer (paper Figure 5)
// and the parallel multi-stage shuffler that runs over it (paper §4.2,
// Figure 7).
//
// A stream buffer is a statically sized chunk array of fixed-size records
// plus index arrays that describe, for each streaming partition, the chunk
// of records belonging to it. To allow lock-free parallel shuffling the
// buffer is divided into P disjoint slices, one per thread; each slice
// carries its own index array and a thread only ever touches its own slice.
// The chunk for a partition is the union of that partition's chunks across
// all slices, so consuming a partition costs at most P extra random
// accesses (negligible next to the records themselves).
//
// Shuffling into K partitions proceeds in ⌈log_F K⌉ stages of fanout F,
// ping-ponging between two buffers, exactly as described in the paper: a
// single-stage shuffle with huge K loses cache locality and prefetcher
// coverage, so F is bounded by the number of cache lines in the target
// cache.
package streambuf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Chunk locates a contiguous run of records inside the chunk array.
type Chunk struct {
	Off int // absolute record offset into the chunk array
	Len int // number of records
}

// Buffer is a stream buffer of fixed-size records of type T.
//
// A Buffer is in one of two states:
//
//   - append state: records are appended (concurrently) at the shared
//     cursor; there is no partition structure yet.
//   - bucketed state: after Shuffle (or Slice for K=1), every slice has an
//     index array of K chunks and Bucket/BucketLen are meaningful.
type Buffer[T any] struct {
	data []T
	n    atomic.Int64 // shared append cursor (append state)

	// bucketed state
	buckets int     // number of buckets (0 = append state)
	slices  []slice // per-thread slices
}

type slice struct {
	base, limit int     // record region [base, limit) of data
	fill        int     // records stored (compacted from base)
	idx         []Chunk // one entry per bucket, absolute offsets
}

// New allocates a stream buffer with room for capacity records.
func New[T any](capacity int) *Buffer[T] {
	return &Buffer[T]{data: make([]T, capacity)}
}

// Cap returns the buffer capacity in records.
func (b *Buffer[T]) Cap() int { return len(b.data) }

// Len returns the number of records currently held.
func (b *Buffer[T]) Len() int {
	if b.buckets > 0 {
		total := 0
		for i := range b.slices {
			total += b.slices[i].fill
		}
		return total
	}
	return int(b.n.Load())
}

// Buckets returns the number of buckets the buffer is currently shuffled
// into, or 0 if the buffer is in append state.
func (b *Buffer[T]) Buckets() int { return b.buckets }

// Reset returns the buffer to the empty append state.
func (b *Buffer[T]) Reset() {
	b.n.Store(0)
	b.buckets = 0
	b.slices = nil
}

// Append reserves space for batch atomically and copies it in. It is safe
// for concurrent use. It returns false (appending nothing) if the buffer is
// full; the caller is expected to have sized the buffer so this is fatal.
func (b *Buffer[T]) Append(batch []T) bool {
	dst := b.Extend(len(batch))
	copy(dst, batch)
	return dst != nil
}

// Extend reserves the next n records atomically and returns them for the
// caller to fill before the buffer is read — Append without the copy, for
// producers that know their output's place in advance. Safe for concurrent
// use. It returns nil (reserving nothing) if the records do not fit.
func (b *Buffer[T]) Extend(n int) []T {
	off := b.n.Add(int64(n)) - int64(n)
	if off+int64(n) > int64(len(b.data)) {
		b.n.Add(int64(-n))
		return nil
	}
	return b.data[off : off+int64(n) : off+int64(n)]
}

// Fill replaces the buffer contents with src (append state).
func (b *Buffer[T]) Fill(src []T) {
	if len(src) > len(b.data) {
		panic(fmt.Sprintf("streambuf: Fill of %d records into capacity %d", len(src), len(b.data)))
	}
	b.Reset()
	copy(b.data, src)
	b.n.Store(int64(len(src)))
}

// Raw returns the filled prefix of the chunk array in append state. The
// slice aliases the buffer.
func (b *Buffer[T]) Raw() []T { return b.data[:b.n.Load()] }

// Bucket calls fn for each contiguous run of records in bucket p, in slice
// order. The slices passed to fn alias the buffer.
func (b *Buffer[T]) Bucket(p int, fn func([]T)) {
	for i := range b.slices {
		c := b.slices[i].idx[p]
		if c.Len > 0 {
			fn(b.data[c.Off : c.Off+c.Len])
		}
	}
}

// BucketLen returns the number of records in bucket p.
func (b *Buffer[T]) BucketLen(p int) int {
	total := 0
	for i := range b.slices {
		total += b.slices[i].idx[p].Len
	}
	return total
}

// BucketRuns returns the contiguous runs of bucket p without copying.
func (b *Buffer[T]) BucketRuns(p int) [][]T {
	var runs [][]T
	b.Bucket(p, func(r []T) { runs = append(runs, r) })
	return runs
}

// BucketTiles streams bucket p exactly as Bucket does, but in tiles of at
// most tileRecs records; tiles never span a slice-chunk boundary, so the
// tiling is a pure function of the bucketed layout and tileRecs. These are
// the tile boundaries of selective streaming: an engine walks the tiles
// once to index a per-tile source summary, and — as long as the buffer is
// not re-shuffled or reset between walks — every later walk with the same
// tileRecs sees the identical i-th tile, letting it skip tiles whose
// summary proves no record matters this iteration. tileRecs < 1 degrades
// to whole runs (one tile per run).
func (b *Buffer[T]) BucketTiles(p, tileRecs int, fn func(tile []T)) {
	b.Bucket(p, func(run []T) {
		if tileRecs < 1 || tileRecs >= len(run) {
			fn(run)
			return
		}
		for off := 0; off < len(run); off += tileRecs {
			end := off + tileRecs
			if end > len(run) {
				end = len(run)
			}
			fn(run[off:end])
		}
	})
}

// slicesFor computes P equal slices over the filled region.
func (b *Buffer[T]) sliceAppendState(p int) {
	n := int(b.n.Load())
	b.slices = make([]slice, p)
	for i := 0; i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		b.slices[i] = slice{base: lo, limit: hi, fill: hi - lo}
	}
}

// Plan describes a multi-stage shuffle: the number of buckets after each
// stage. Stage i splits every bucket of stage i-1 by the next log2(fanout)
// bits of the key, most significant first.
type Plan struct {
	K      int   // total buckets (power of two)
	Fanout int   // per-stage fanout (power of two)
	Stages []int // cumulative bucket counts after each stage
}

// NewPlan validates k and fanout and returns the stage plan.
func NewPlan(k, fanout int) (Plan, error) {
	if k <= 0 || k&(k-1) != 0 {
		return Plan{}, fmt.Errorf("streambuf: K=%d is not a positive power of two", k)
	}
	if fanout < 2 || fanout&(fanout-1) != 0 {
		return Plan{}, fmt.Errorf("streambuf: fanout=%d is not a power of two >= 2", fanout)
	}
	kb := bits.TrailingZeros(uint(k))
	fb := bits.TrailingZeros(uint(fanout))
	var stages []int
	for b := 0; b < kb; {
		b += fb
		if b > kb {
			b = kb
		}
		stages = append(stages, 1<<b)
	}
	if len(stages) == 0 { // K == 1
		stages = []int{1}
	}
	return Plan{K: k, Fanout: fanout, Stages: stages}, nil
}

// NumStages returns the number of shuffle passes the plan performs.
func (p Plan) NumStages() int {
	if p.K == 1 {
		return 0
	}
	return len(p.Stages)
}

// Shuffle partitions the records of in into plan.K buckets by the top bits
// of key(record), using p parallel slice workers and ping-ponging between
// in and out (which must have equal capacity). It returns the buffer that
// holds the final bucketed result (in or out, depending on stage parity).
//
// key must return a value in [0, plan.K).
func Shuffle[T any](in, out *Buffer[T], plan Plan, p int, key func(T) uint32) *Buffer[T] {
	if len(in.data) != len(out.data) {
		panic("streambuf: Shuffle buffers must have equal capacity")
	}
	if p < 1 {
		p = 1
	}
	if in.buckets == 0 {
		in.sliceAppendState(p)
		for i := range in.slices {
			s := &in.slices[i]
			s.idx = []Chunk{{Off: s.base, Len: s.fill}}
		}
		in.buckets = 1
	}
	if plan.K == 1 {
		return in
	}

	kb := bits.TrailingZeros(uint(plan.K))
	cur, nxt := in, out
	prevBuckets := in.buckets
	// Mirror slice boundaries onto the scratch buffer once.
	nxt.slices = make([]slice, len(cur.slices))
	for _, want := range plan.Stages {
		if want <= prevBuckets {
			continue
		}
		shift := kb - bits.TrailingZeros(uint(want))
		sub := want / prevBuckets
		stageShuffle(cur, nxt, prevBuckets, sub, shift, p, key)
		cur, nxt = nxt, cur
		prevBuckets = want
	}
	cur.buckets = prevBuckets
	nxt.Reset()
	return cur
}

// FoldBuckets merges records that share a slot within every (slice, bucket)
// chunk of a bucketed buffer, in place, and returns the number of records
// merged away. slot maps a record of the given bucket to a dense index in
// [0, slots) — for update streams, the destination vertex's offset inside
// its partition's vertex range — and merge folds a doomed record into its
// surviving twin. Chunks are compacted towards their own start, so the
// buffer's chunk index stays valid and consumers simply see shorter
// buckets; only a Reset restores the invariant that slice regions are
// densely filled.
//
// This is the shuffler's combining step: when updates form a semigroup
// (core.Combiner), folding each partition's chunk after the final shuffle
// stage shrinks the stream the gather phase random-accesses vertices for —
// and, in the out-of-core engine, the bytes written to the update files.
// Each worker touches only its own slices, so the fold is lock-free like
// the shuffle itself; records of the same destination that landed in
// different slices stay separate (the gather merges them anyway).
func (b *Buffer[T]) FoldBuckets(workers, slots int, slot func(bucket int, rec T) uint32, merge func(dst *T, src T)) int64 {
	return NewFolder(workers, slots, slot, merge).Fold(b)
}

// Folder folds buffers repeatedly with cached per-worker slot tables. The
// out-of-core engine folds every flushed update buffer, so re-allocating
// the tables (8 bytes per slot per worker) on each fold would put pure
// zeroing work on the write path; a Folder pays it once. A Folder is safe
// for sequential reuse, not for concurrent Fold calls.
type Folder[T any] struct {
	slots int
	slot  func(bucket int, rec T) uint32
	merge func(dst *T, src T)
	// Per-worker tables: pos remembers, per slot, the compacted position
	// of the slot's surviving record; gen invalidates a worker's whole
	// table in O(1) per chunk via the cur counter.
	pos [][]int32
	gen [][]uint32
	cur []uint32
}

// NewFolder prepares a fold over records mapped to [0, slots) dense slots
// per bucket, merging doomed records into their surviving twin, with at
// most workers parallel slice workers.
func NewFolder[T any](workers, slots int, slot func(bucket int, rec T) uint32, merge func(dst *T, src T)) *Folder[T] {
	if slots < 1 {
		slots = 1
	}
	if workers < 1 {
		workers = 1
	}
	f := &Folder[T]{
		slots: slots,
		slot:  slot,
		merge: merge,
		pos:   make([][]int32, workers),
		gen:   make([][]uint32, workers),
		cur:   make([]uint32, workers),
	}
	for w := range f.pos {
		f.pos[w] = make([]int32, slots)
		f.gen[w] = make([]uint32, slots)
	}
	return f
}

// Fold runs the fold over a bucketed buffer and returns the number of
// records merged away (see FoldBuckets).
func (f *Folder[T]) Fold(b *Buffer[T]) int64 {
	if b.buckets == 0 {
		panic("streambuf: fold of a buffer in append state")
	}
	workers := len(f.pos)
	if workers > len(b.slices) {
		workers = len(b.slices)
	}
	var merged atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pos, gen := f.pos[w], f.gen[w]
			cur := f.cur[w]
			var n int64
			for si := w; si < len(b.slices); si += workers {
				s := &b.slices[si]
				fill := 0
				for g := range s.idx {
					c := &s.idx[g]
					cur++
					if cur == 0 { // counter wrapped: stale gen entries could alias
						for i := range gen {
							gen[i] = 0
						}
						cur = 1
					}
					keep := 0
					recs := b.data[c.Off : c.Off+c.Len]
					for i, rec := range recs {
						k := f.slot(g, rec)
						if gen[k] == cur {
							f.merge(&recs[pos[k]], rec)
							continue
						}
						gen[k] = cur
						pos[k] = int32(keep)
						if keep != i {
							recs[keep] = rec
						}
						keep++
					}
					n += int64(c.Len - keep)
					c.Len = keep
					fill += keep
				}
				s.fill = fill
			}
			f.cur[w] = cur
			merged.Add(n)
		}(w)
	}
	wg.Wait()
	return merged.Load()
}

// stageShuffle performs one shuffle stage: every existing bucket of cur is
// split into sub sub-buckets ordered by (key >> shift) within each slice.
// Slices are processed by parallel workers; a worker touches only its own
// slice in both buffers, so no synchronization is needed until the final
// join.
func stageShuffle[T any](cur, nxt *Buffer[T], oldBuckets, sub, shift, p int, key func(T) uint32) {
	newBuckets := oldBuckets * sub
	var wg sync.WaitGroup
	for si := range cur.slices {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			src := &cur.slices[si]
			dst := &nxt.slices[si]
			*dst = slice{base: src.base, limit: src.limit, fill: src.fill}
			counts := make([]int, newBuckets)
			// Pass 1: count records per new bucket.
			for g := 0; g < oldBuckets; g++ {
				c := src.idx[g]
				for _, rec := range cur.data[c.Off : c.Off+c.Len] {
					nb := g*sub + int(key(rec))>>shift&(sub-1)
					counts[nb]++
				}
			}
			// Prefix sums -> chunk offsets within the slice region.
			idx := make([]Chunk, newBuckets)
			off := dst.base
			for nb := 0; nb < newBuckets; nb++ {
				idx[nb] = Chunk{Off: off, Len: counts[nb]}
				off += counts[nb]
			}
			// Pass 2: scatter records to their chunks.
			cursor := make([]int, newBuckets)
			for nb := range cursor {
				cursor[nb] = idx[nb].Off
			}
			for g := 0; g < oldBuckets; g++ {
				c := src.idx[g]
				for _, rec := range cur.data[c.Off : c.Off+c.Len] {
					nb := g*sub + int(key(rec))>>shift&(sub-1)
					nxt.data[cursor[nb]] = rec
					cursor[nb]++
				}
			}
			dst.idx = idx
		}(si)
	}
	wg.Wait()
}
