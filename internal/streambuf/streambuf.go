// Package streambuf implements X-Stream's stream buffer (paper Figure 5)
// and the parallel multi-stage shuffler that runs over it (paper §4.2,
// Figure 7).
//
// A stream buffer is a statically sized chunk array of fixed-size records
// plus an index array that describes, for each streaming partition, the
// chunk of records belonging to it: K+1 offsets, bucket p being the records
// between offsets p and p+1. A bucket is one run.
//
// Every bucketed layout comes from one placement routine, place: a stable
// partition of an ordered input, so the layout is a function of the input
// and the keys alone, whatever the parallelism.
//
// Shuffling into K partitions proceeds in ⌈log_F K⌉ stages of fanout F,
// ping-ponging between two buffers, as described in the paper: a
// single-stage shuffle with huge K loses cache locality and prefetcher
// coverage, so F is bounded by the number of cache lines in the target
// cache. Every stage after the first places each bucket of the stage
// before inside that bucket's range, so any fanout gives one layout.
package streambuf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer is a stream buffer of fixed-size records of type T.
//
// A Buffer is in one of two states:
//
//   - append state: records are appended (concurrently) at the shared
//     cursor; there is no partition structure yet.
//   - bucketed state: after a placement (Shuffle, Place, a Writer's Seal)
//     off holds K+1 offsets and Bucket returns bucket p's run.
type Buffer[T any] struct {
	data []T
	n    atomic.Int64 // shared append cursor (append state)
	off  []int        // bucketed state: bucket p is data[off[p]:off[p+1]]; empty in append state

	// runs and pl are scratch reused by every placement into the buffer:
	// a one-run input list and the placement routine's state.
	runs [][]T
	pl   placement[T]
}

// New allocates a stream buffer with room for capacity records.
func New[T any](capacity int) *Buffer[T] {
	return &Buffer[T]{data: make([]T, capacity)}
}

// Cap returns the buffer capacity in records.
func (b *Buffer[T]) Cap() int { return len(b.data) }

// Len returns the number of records currently held.
func (b *Buffer[T]) Len() int {
	if k := len(b.off) - 1; k > 0 {
		return b.off[k]
	}
	return int(b.n.Load())
}

// Records returns the records held: in append state the filled prefix, in
// bucketed state every bucket back to back in bucket order. It aliases the
// buffer.
func (b *Buffer[T]) Records() []T { return b.data[:b.Len()] }

// Reset returns the buffer to the empty append state. The offset array and
// the placement scratch are kept for the next placement to reuse.
func (b *Buffer[T]) Reset() {
	b.n.Store(0)
	b.off = b.off[:0]
}

// Append reserves space for batch atomically and copies it in. It is safe
// for concurrent use. It returns false (appending nothing) if the buffer is
// full; the caller is expected to have sized the buffer so this is fatal.
func (b *Buffer[T]) Append(batch []T) bool {
	_, ok := b.reserve(batch)
	return ok
}

// reserve is Append that also returns where batch landed.
func (b *Buffer[T]) reserve(batch []T) (int, bool) {
	n := int64(len(batch))
	off := b.n.Add(n) - n
	if off+n > int64(len(b.data)) {
		b.n.Add(-n)
		return 0, false
	}
	copy(b.data[off:off+n], batch)
	return int(off), true
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

// Bucket returns bucket p's records, one run in input order. It aliases
// the buffer.
func (b *Buffer[T]) Bucket(p int) []T { return b.data[b.off[p]:b.off[p+1]] }

// Place lays in out in b as k buckets, bucket p holding, in input order,
// every record r of in with key(r) = p, with the given parallelism. b must
// have room for in, and in must not alias b.
func (b *Buffer[T]) Place(in []T, k, threads int, key func(T) uint32) {
	b.runs = append(b.runs[:0], in)
	b.setOff(k)
	place(b, b.off, b.runs, 0, k, threads, key, 0, ^uint32(0))
}

// setOff sizes b's offset array for k buckets, reusing its storage.
func (b *Buffer[T]) setOff(k int) {
	if cap(b.off) < k+1 {
		b.off = make([]int, k+1)
	}
	b.off = b.off[:k+1]
}

// pad is the gap, in cursors, between two slices' cursors: one cache line,
// so slices advancing their own cursors never share a line.
const pad = 8

// minParallelRecs is the fewest records worth a goroutine of their own: a
// placement cuts its input into at most one slice per minParallelRecs
// records, and runs on the caller's goroutine below that.
const minParallelRecs = 4096

// placement is the state of one call of place.
type placement[T any] struct {
	dst     []T   // where the buckets go
	runs    [][]T // the ordered input
	n       int   // records in runs
	k       int
	slices  int
	key     func(T) uint32
	shift   uint
	mask    uint32
	cursors []int // slice i's cursors are cursors[i*(k+pad):][:k]
}

// place is the one placement routine. It lays the n records of runs, an
// ordered input, out in b.data[base:base+n] as k buckets: bucket g holds,
// in input order, every record r with key(r)>>shift&mask == g, and lies
// between off[g] and off[g+1], which place writes (off has k+1 entries).
// The input is cut into equal slices, at most threads and at least
// minParallelRecs records each: the slices are counted per bucket in
// parallel, the counts are laid out bucket-major, slice by slice within a
// bucket, and the slices are placed in parallel, each (bucket, slice) pair
// advancing a cursor of its own. The layout depends on the input alone.
func place[T any](b *Buffer[T], off []int, runs [][]T, base, k, threads int, key func(T) uint32, shift uint, mask uint32) {
	pl := &b.pl
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	slices := max(1, min(threads, n/minParallelRecs))
	if cap(pl.cursors) < slices*(k+pad) {
		pl.cursors = make([]int, slices*(k+pad))
	}
	pl.dst, pl.runs, pl.n, pl.k, pl.slices = b.data[base:base+n], runs, n, k, slices
	pl.key, pl.shift, pl.mask = key, shift, mask
	pl.cursors = pl.cursors[:slices*(k+pad)]

	pl.each(false)
	pos := 0
	for g := 0; g < k; g++ {
		off[g] = base + pos
		for i := g; i < len(pl.cursors); i += k + pad {
			c := pl.cursors[i]
			pl.cursors[i] = pos
			pos += c
		}
	}
	off[k] = base + n
	pl.each(true)
	pl.dst, pl.runs, pl.key = nil, nil, nil
}

// each counts, or places, every slice, slice 0 on the caller's goroutine.
func (pl *placement[T]) each(placing bool) {
	if pl.slices == 1 {
		pl.work(0, placing)
		return
	}
	var wg sync.WaitGroup
	wg.Add(pl.slices - 1)
	for i := 1; i < pl.slices; i++ {
		go func(i int) {
			defer wg.Done()
			pl.work(i, placing)
		}(i)
	}
	pl.work(0, placing)
	wg.Wait()
}

// work counts slice i's records per bucket into its cursors or, placing,
// writes them to their places, advancing the cursors.
func (pl *placement[T]) work(i int, placing bool) {
	cur := pl.cursors[i*(pl.k+pad):][:pl.k]
	if !placing {
		clear(cur)
	}
	dst, key, shift, mask := pl.dst, pl.key, pl.shift, pl.mask
	lo, hi := i*pl.n/pl.slices, (i+1)*pl.n/pl.slices
	off := 0
	for _, run := range pl.runs {
		if a, b := max(lo-off, 0), min(hi-off, len(run)); a < b {
			if placing {
				for _, r := range run[a:b] {
					g := key(r) >> shift & mask
					dst[cur[g]] = r
					cur[g]++
				}
			} else {
				for _, r := range run[a:b] {
					cur[key(r)>>shift&mask]++
				}
			}
		}
		if off += len(run); off >= hi {
			return
		}
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
// of key(record), with the given parallelism, ping-ponging between in and
// out (which must have equal capacity). It returns the buffer that holds
// the final bucketed result (in or out, depending on stage parity). An
// append-state in is placed in append order; a bucketed one has each of its
// buckets split further.
//
// key must return a value in [0, plan.K).
func Shuffle[T any](in, out *Buffer[T], plan Plan, threads int, key func(T) uint32) *Buffer[T] {
	if len(in.data) != len(out.data) {
		panic("streambuf: Shuffle buffers must have equal capacity")
	}
	if len(in.off) > 0 || plan.K == 1 {
		if len(in.off) == 0 {
			n := in.Len()
			in.setOff(1)
			in.off[0], in.off[1] = 0, n
		}
		return stages(in, out, plan, threads, key)
	}
	in.runs = append(in.runs[:0], in.Records())
	return shuffleRuns(in.runs, out, in, plan, threads, key)
}

// shuffleRuns is Shuffle of the ordered input runs: the first stage places
// them in dst, the later ones ping-pong between dst and spare, which the
// runs may alias. It returns the buffer holding the result and resets the
// other.
func shuffleRuns[T any](runs [][]T, dst, spare *Buffer[T], plan Plan, threads int, key func(T) uint32) *Buffer[T] {
	k := plan.Stages[0]
	dst.setOff(k)
	place(dst, dst.off, runs, 0, k, threads, key, uint(bits.TrailingZeros(uint(plan.K/k))), uint32(k-1))
	return stages(dst, spare, plan, threads, key)
}

// stages runs the stages of plan that cur's buckets have not yet taken,
// each placing every bucket of cur within the bucket's own range of nxt,
// and returns the buffer holding the result, the other one reset.
func stages[T any](cur, nxt *Buffer[T], plan Plan, threads int, key func(T) uint32) *Buffer[T] {
	kb := bits.TrailingZeros(uint(plan.K))
	for _, want := range plan.Stages {
		prev := len(cur.off) - 1
		if want <= prev {
			continue
		}
		sub := want / prev
		shift := uint(kb - bits.TrailingZeros(uint(want)))
		nxt.setOff(want)
		for g := 0; g < prev; g++ {
			// Bucket g's sub-buckets take offsets g*sub..(g+1)*sub of nxt,
			// the last being bucket g+1's first.
			nxt.runs = append(nxt.runs[:0], cur.Bucket(g))
			place(nxt, nxt.off[g*sub:(g+1)*sub+1], nxt.runs, cur.off[g], sub, threads, key, shift, uint32(sub-1))
		}
		cur, nxt = nxt, cur
	}
	nxt.Reset()
	return cur
}
