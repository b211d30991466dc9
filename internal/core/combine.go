package core

import (
	"math/bits"

	"repro/internal/pod"
)

// opCombiner is a Combiner that declares its Combine to be a built-in op.
type opCombiner interface{ CombineOp() CombineOp }

// Combining resolves, once per run, how a run of prog merges updates to one
// destination: combine is the program's Combine, nil when it has no Combiner
// or noCombine is set; op is the CombineOp it declares, zero when none or when
// combine is nil. Both engines' run setups call it and hand both to the
// scatter kernel, so its inline loops and the func cannot disagree.
func Combining[V, M any](prog Program[V, M], noCombine bool) (combine func(a, b M) M, op CombineOp) {
	cb, ok := prog.(Combiner[M])
	if !ok || noCombine {
		return nil, 0
	}
	if d, ok := prog.(opCombiner); ok {
		op = d.CombineOp()
	}
	return cb.Combine, op
}

// numeric is the update value types with op-specialised merge loops. The ops
// are fixed in each loop body and the loops are generic over the value type
// only: each of these types is its own GC shape, so the merge compiles to one
// inline instruction, where a loop generic over the op would call it through
// the instantiation's dictionary.
type numeric interface{ ~float32 | ~int32 | ~uint32 }

// addLoop is one of the combining buffer's block loops over values of type M.
type addLoop[M any] func(c *CombineBuffer[M], us []Update[M])

// opLoopFor returns the loop that merges by op inline, ok false when op is
// zero or M has no specialised loop (the func value merges then).
func opLoopFor[M any](op CombineOp) (l addLoop[M], ok bool) {
	var loop any
	switch any(*new(M)).(type) {
	case float32:
		loop = numericLoop[float32](op)
	case int32:
		loop = numericLoop[int32](op)
	case VertexID:
		loop = numericLoop[VertexID](op)
	}
	l, ok = loop.(addLoop[M])
	return l, ok
}

func numericLoop[N numeric](op CombineOp) any {
	switch op {
	case CombineSum:
		return addLoop[N](denseSum[N])
	case CombineMin:
		return addLoop[N](denseMin[N])
	}
	return nil
}

// CombineBuffer is the thread-private combining buffer the scatter kernel
// puts in front of the shared update stream when the program implements
// Combiner and its destinations fit (DenseCombines). It is a dense
// accumulator: a value per destination, a bitmap of the destinations present
// and the list of bitmap words touched, in the order they were first
// touched. An update to a present destination merges into its value, any
// other stores its value and sets its bit, so Add emits nothing; Sweep emits
// one record per destination present — the touched words in first-touch
// order, each word's destinations in ascending order — through the small
// append buffer of §4.1, and clears the words it walks. Sweep and Reset cost
// O(words touched), never O(destinations), and the emission order is a pure
// function of the Add sequence.
//
// A CombineBuffer belongs to one goroutine. The kernel holds one per scatter
// worker for the whole run and Resets it at the start of every scatter task,
// so the combining it performs is a deterministic function of the task's
// edge order, independent of thread scheduling and of what the buffer held
// before.
//
// A merge goes through the combine func, or inline when the buffer was made
// with a CombineOp that has a loop specialised for M; the loop is picked at
// construction, so Add dispatches once per block, not once per update.
type CombineBuffer[M any] struct {
	acc     []M         // acc[d] is destination d's value while d's bit is set
	seen    []uint64    // bit d%64 of word d/64 set: destination d is present
	touched []uint32    // the nonzero words of seen, in first-touch order
	out     []Update[M] // records awaiting the next drain
	combine func(a, b M) M
	add     addLoop[M]

	// Combined counts updates merged away since construction or Reset.
	Combined int64
}

// denseCombineBytes is the widest destination-value array, nv·sizeof(M), a
// scatter kernel combines in: eight times the §4 cache share, 16 MiB. The
// value comes from end-to-end runs, not from a kernel-only benchmark: on
// RMAT-21 and -22 (8 and 16 MiB of float32) PageRank and WCC in memory and
// PageRank out of core iterated faster with the accumulator than with the
// write-back cache it replaced, and on RMAT-23 appending plainly iterated no
// slower than that cache (CHANGES.md). Each scatter kernel holds its
// accumulator outside the §3.4 budget (Job.MemoryEstimate counts it); past
// the bound the kernel appends plainly, so the footprint stays bounded
// whatever the graph.
const denseCombineBytes = 8 * CacheBytes

// DenseCombines reports whether a scatter kernel of M updates over nv
// destinations combines them: nv is known (> 0) and nv·sizeof(M) fits
// denseCombineBytes.
func DenseCombines[M any](nv int64) bool {
	return nv > 0 && nv <= denseCombineBytes/int64(max(pod.Size[M](), 1))
}

// DenseCombineFootprint is the bytes a combining buffer of M updates over nv
// destinations holds in its dense accumulator: nv·sizeof(M) for the values,
// nv/8 for the occupancy bitmap and nv/16 for the touched-word list, rounded
// up to whole words; 0 when nv is past the bound and the kernel appends.
func DenseCombineFootprint[M any](nv int64) int64 {
	if !DenseCombines[M](nv) {
		return 0
	}
	words := (nv + 63) / 64
	return nv*int64(pod.Size[M]()) + words*8 + words*4
}

// NewCombineBuffer returns a combining buffer for updates to destinations in
// [0, nv) whose append buffer holds baseRecs records. It merges by combine,
// which op, when non-zero, declares combine to be (see Combining).
func NewCombineBuffer[M any](baseRecs int, nv int64, combine func(a, b M) M, op CombineOp) *CombineBuffer[M] {
	words := (nv + 63) / 64
	c := &CombineBuffer[M]{
		acc: make([]M, nv), seen: make([]uint64, words), touched: make([]uint32, 0, words),
		out: make([]Update[M], 0, max(baseRecs, 1)), combine: combine,
		add: (*CombineBuffer[M]).denseFunc,
	}
	if l, ok := opLoopFor[M](op); ok {
		c.add = l
	}
	return c
}

// Reset forgets every destination present and zeroes Combined, in
// O(words touched) — O(1) after a Sweep. A Reset buffer combines and emits
// exactly like a fresh one.
func (c *CombineBuffer[M]) Reset() {
	c.out, c.Combined = c.out[:0], 0
	for _, w := range c.touched {
		c.seen[w] = 0
	}
	c.touched = c.touched[:0]
}

// Add merges a block of updates into the buffer, one at a time. It emits
// nothing: every destination's record waits for Sweep.
func (c *CombineBuffer[M]) Add(us []Update[M]) { c.add(c, us) }

// denseFunc, denseSum and denseMin are Add's loops: an update to a present
// destination merges into its value through combine, by a + u, or by
// a < u ? a : u; the first one to a destination stores its value and sets
// its bit, listing the bit's word when it was zero.
func (c *CombineBuffer[M]) denseFunc(us []Update[M]) {
	acc, seen, combined, combine := c.acc, c.seen, c.Combined, c.combine
	for _, u := range us {
		w, b := u.Dst>>6, uint64(1)<<(u.Dst&63)
		if m := seen[w]; m&b != 0 {
			acc[u.Dst] = combine(acc[u.Dst], u.Val)
			combined++
		} else {
			if m == 0 {
				c.touched = append(c.touched, uint32(w))
			}
			seen[w], acc[u.Dst] = m|b, u.Val
		}
	}
	c.Combined = combined
}

func denseSum[N numeric](c *CombineBuffer[N], us []Update[N]) {
	acc, seen, combined := c.acc, c.seen, c.Combined
	for _, u := range us {
		w, b := u.Dst>>6, uint64(1)<<(u.Dst&63)
		if m := seen[w]; m&b != 0 {
			acc[u.Dst] += u.Val
			combined++
		} else {
			if m == 0 {
				c.touched = append(c.touched, uint32(w))
			}
			seen[w], acc[u.Dst] = m|b, u.Val
		}
	}
	c.Combined = combined
}

func denseMin[N numeric](c *CombineBuffer[N], us []Update[N]) {
	acc, seen, combined := c.acc, c.seen, c.Combined
	for _, u := range us {
		w, b := u.Dst>>6, uint64(1)<<(u.Dst&63)
		if m := seen[w]; m&b != 0 {
			if a := &acc[u.Dst]; !(*a < u.Val) {
				*a = u.Val
			}
			combined++
		} else {
			if m == 0 {
				c.touched = append(c.touched, uint32(w))
			}
			seen[w], acc[u.Dst] = m|b, u.Val
		}
	}
	c.Combined = combined
}

// Sweep emits every destination present, word by touched word, handing the
// records to fn (the slice aliases the buffer and is only valid within fn)
// whenever the append buffer fills and once at the end; an empty buffer
// skips fn. It leaves the buffer empty; Combined is kept for the caller to
// read.
func (c *CombineBuffer[M]) Sweep(fn func([]Update[M])) {
	for _, w := range c.touched {
		m, base := c.seen[w], VertexID(w)<<6
		c.seen[w] = 0
		for ; m != 0; m &= m - 1 {
			d := base | VertexID(bits.TrailingZeros64(m))
			if c.out = append(c.out, Update[M]{Dst: d, Val: c.acc[d]}); len(c.out) == cap(c.out) {
				fn(c.out)
				c.out = c.out[:0]
			}
		}
	}
	c.touched = c.touched[:0]
	if len(c.out) > 0 {
		fn(c.out)
	}
	c.out = c.out[:0]
}
