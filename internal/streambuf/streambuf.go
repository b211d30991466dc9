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
//
// A producer that can walk its records twice and count each slice's
// records per bucket needs neither the stages nor the second buffer:
// NewBucketed lays the chunk index out from its counts, and one placement
// pass writes every record straight into its final place. Every shuffle
// stage is stable, so that is the layout a Shuffle of the same slices
// gives, at any fanout.
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
//   - bucketed state: after Shuffle, or from NewBucketed, every slice has
//     an index array of K chunks and Bucket/BucketLen are meaningful.
type Buffer[T any] struct {
	data []T
	n    atomic.Int64 // shared append cursor (append state)

	// bucketed state
	buckets int     // number of buckets (0 = append state)
	slices  []slice // per-thread slices
}

type slice struct {
	base, limit int     // record region [base, limit) of data
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
			total += b.slices[i].limit - b.slices[i].base
		}
		return total
	}
	return int(b.n.Load())
}

// Reset returns the buffer to the empty append state. The slices' storage
// is kept for the next shuffle to reuse.
func (b *Buffer[T]) Reset() {
	b.n.Store(0)
	b.buckets = 0
	b.slices = b.slices[:0]
}

// Append reserves space for batch atomically and copies it in. It is safe
// for concurrent use. It returns false (appending nothing) if the buffer is
// full; the caller is expected to have sized the buffer so this is fatal.
func (b *Buffer[T]) Append(batch []T) bool {
	n := int64(len(batch))
	off := b.n.Add(n) - n
	if off+n > int64(len(b.data)) {
		b.n.Add(-n)
		return false
	}
	copy(b.data[off:off+n], batch)
	return true
}

// NewBucketed allocates a buffer of the given capacity already in bucketed
// state, for a producer that has counted its records itself: the filled
// prefix is len(counts) slices laid back to back, slice i holding
// counts[i][g] records of bucket g, bucket by bucket. Every counts[i] has
// one entry per bucket. NewBucketed rewrites each counts[i][g] into the
// offset of chunk (i, g) in the returned record array — the cursor the
// producer's placement pass advances as it writes the chunk's records in
// order. The array aliases the buffer; every counted record must be written
// before the buffer is read.
func NewBucketed[T any](capacity int, counts [][]int) (*Buffer[T], []T) {
	if len(counts) == 0 || len(counts[0]) == 0 {
		panic("streambuf: NewBucketed needs at least one slice and one bucket")
	}
	b := New[T](capacity)
	b.buckets = len(counts[0])
	b.slices = make([]slice, len(counts))
	base := 0
	for i, c := range counts {
		if len(c) != b.buckets {
			panic(fmt.Sprintf("streambuf: NewBucketed slice %d has %d buckets, slice 0 has %d", i, len(c), b.buckets))
		}
		idx, end := chunkIndex(base, c)
		if end > capacity {
			panic(fmt.Sprintf("streambuf: NewBucketed of %d+ records into capacity %d", end, capacity))
		}
		b.slices[i] = slice{base: base, limit: end, idx: idx}
		base = end
	}
	return b, b.data
}

// chunkIndex lays one slice's bucket counts out back to back from base and
// returns the slice's chunk index and where it ends. It rewrites counts[g]
// into chunk g's offset, the write cursor of a placement pass.
func chunkIndex(base int, counts []int) ([]Chunk, int) {
	idx := make([]Chunk, len(counts))
	for g, c := range counts {
		idx[g] = Chunk{Off: base, Len: c}
		counts[g] = base
		base += c
	}
	return idx, base
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

// sliceAppendState cuts the filled region into p equal slices of one
// bucket each, the first stage's input.
func (b *Buffer[T]) sliceAppendState(p int) {
	n := int(b.n.Load())
	b.slices = resliced(b.slices, p)
	for i := range b.slices {
		s := &b.slices[i]
		s.base, s.limit = i*n/p, (i+1)*n/p
		s.idx = append(s.idx[:0], Chunk{Off: s.base, Len: s.limit - s.base})
	}
	b.buckets = 1
}

// resliced returns ss with length n, reusing its storage — each slice's
// chunk index included — when it has room.
func resliced(ss []slice, n int) []slice {
	if cap(ss) < n {
		return append(ss[:cap(ss)], make([]slice, n-cap(ss))...)
	}
	return ss[:n]
}

// minParallelRecs is the fewest records worth a goroutine of their own: a
// shuffle stage starts at most one goroutine per minParallelRecs
// records, and runs on the caller's goroutine below that.
const minParallelRecs = 4096

// workersFor returns how many goroutines share the records of b's slices:
// at most one per slice and at least one.
func (b *Buffer[T]) workersFor() int {
	return max(1, min(len(b.slices), b.Len()/minParallelRecs))
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
	}
	if plan.K == 1 {
		return in
	}

	kb := bits.TrailingZeros(uint(plan.K))
	cur, nxt := in, out
	prevBuckets := in.buckets
	// Mirror slice boundaries onto the scratch buffer once.
	nxt.slices = resliced(nxt.slices, len(cur.slices))
	for _, want := range plan.Stages {
		if want <= prevBuckets {
			continue
		}
		shift := kb - bits.TrailingZeros(uint(want))
		sub := want / prevBuckets
		stageShuffle(cur, nxt, prevBuckets, sub, shift, key)
		cur, nxt = nxt, cur
		prevBuckets = want
	}
	cur.buckets = prevBuckets
	nxt.Reset()
	return cur
}

// stageShuffle performs one shuffle stage: every existing bucket of cur is
// split into sub sub-buckets ordered by (key >> shift) within each slice.
// A worker touches only its own slices in both buffers, so no
// synchronization is needed until the final join; a stage of fewer than
// minParallelRecs records per slice worker takes fewer workers, down to
// the caller's goroutine alone. The layout depends on the slices, never on
// the workers.
func stageShuffle[T any](cur, nxt *Buffer[T], oldBuckets, sub, shift int, key func(T) uint32) {
	workers := cur.workersFor()
	if workers == 1 {
		for si := range cur.slices {
			shuffleSlice(cur, nxt, si, oldBuckets, sub, shift, key)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := w; si < len(cur.slices); si += workers {
				shuffleSlice(cur, nxt, si, oldBuckets, sub, shift, key)
			}
		}(w)
	}
	wg.Wait()
}

// shuffleSlice is one slice's share of a shuffle stage. The new chunk
// index, reusing nxt's storage for the slice, first counts each new
// bucket's records, then lays the chunks out and serves as the placement
// pass's write cursors.
func shuffleSlice[T any](cur, nxt *Buffer[T], si, oldBuckets, sub, shift int, key func(T) uint32) {
	src, dst := &cur.slices[si], &nxt.slices[si]
	dst.base, dst.limit = src.base, src.limit
	idx := dst.idx[:0]
	if n := oldBuckets * sub; cap(idx) < n {
		idx = make([]Chunk, n)
	} else {
		idx = idx[:n]
		clear(idx)
	}
	// Pass 1: count records per new bucket.
	for g := 0; g < oldBuckets; g++ {
		c := src.idx[g]
		for _, rec := range cur.data[c.Off : c.Off+c.Len] {
			idx[g*sub+int(key(rec))>>shift&(sub-1)].Len++
		}
	}
	// Chunk offsets within the slice region, then pass 2 scatters records
	// to their chunks, advancing each chunk's Off as its cursor.
	off := dst.base
	for i := range idx {
		idx[i].Off = off
		off += idx[i].Len
	}
	for g := 0; g < oldBuckets; g++ {
		c := src.idx[g]
		for _, rec := range cur.data[c.Off : c.Off+c.Len] {
			nb := g*sub + int(key(rec))>>shift&(sub-1)
			nxt.data[idx[nb].Off] = rec
			idx[nb].Off++
		}
	}
	for i := range idx {
		idx[i].Off -= idx[i].Len
	}
	dst.idx = idx
}
