package core

import (
	"math/bits"

	"repro/internal/pod"
	"repro/internal/streambuf"
)

// MaxFoldSlots bounds the per-worker dense slot tables of the
// post-shuffle fold: beyond ~4M vertices per partition the tables stop
// being worth their footprint and engines skip the fold (scatter-side
// combining still applies).
const MaxFoldSlots = 4 << 20

// NewUpdateFolder builds the per-partition combining fold both engines
// apply to shuffled update buffers: within each partition's chunk, updates
// to the same destination merge through combine. The slot of an update is
// its destination's offset inside the partition's contiguous vertex range.
// Returns nil when the partitions are too wide for dense slot tables
// (MaxFoldSlots); the folder's tables are cached, so one folder should be
// reused for every fold of a run. The engines build theirs with Combining,
// which merges inline when the program declares a CombineOp.
func NewUpdateFolder[M any](split Split, workers int, combine func(a, b M) M) *streambuf.Folder[Update[M]] {
	return newUpdateFolder(split, workers, combine, 0)
}

func newUpdateFolder[M any](split Split, workers int, combine func(a, b M) M, op CombineOp) *streambuf.Folder[Update[M]] {
	per := split.PerPartition()
	if per > MaxFoldSlots {
		return nil
	}
	fold := foldFunc(uint32(per), combine)
	if l, ok := opLoopsFor[M](op); ok {
		fold = l.fold(uint32(per))
	}
	return streambuf.NewFolder(workers, int(per), fold)
}

// opCombiner is a Combiner that declares its Combine to be a built-in op.
type opCombiner interface{ CombineOp() CombineOp }

// Combining resolves, once per run, how a run of prog merges updates to one
// destination: combine is the program's Combine, nil when it has no Combiner
// or noCombine is set; op is the CombineOp it declares, zero when none or when
// combine is nil; folder is the post-shuffle fold over split for up to
// workers workers, merging by both (nil when combine is, or when partitions
// are wider than MaxFoldSlots). Both engines' run setups call it, so the
// combining buffer and the fold cannot disagree on the merge.
func Combining[V, M any](prog Program[V, M], noCombine bool, split Split, workers int) (combine func(a, b M) M, op CombineOp, folder *streambuf.Folder[Update[M]]) {
	cb, ok := prog.(Combiner[M])
	if !ok || noCombine {
		return nil, 0, nil
	}
	if d, ok := prog.(opCombiner); ok {
		op = d.CombineOp()
	}
	return cb.Combine, op, newUpdateFolder(split, workers, cb.Combine, op)
}

// numeric is the update value types with op-specialised merge loops. The ops
// are fixed in each loop body and the loops are generic over the value type
// only: each of these types is its own GC shape, so the merge compiles to one
// inline instruction, where a loop generic over the op would call it through
// the instantiation's dictionary.
type numeric interface{ ~float32 | ~int32 | ~uint32 }

// opLoops are the merge loops of one op over values of type M: the combining
// buffer's block loops, over the cache (add) and over the dense accumulator
// (dense), and the fold's chunk loop over partitions of per vertices.
type opLoops[M any] struct {
	add, dense func(c *CombineBuffer[M], us []Update[M], fn func([]Update[M]))
	fold       func(per uint32) func(p int, recs []Update[M], pos []int32, gen []uint32, cur uint32) int
}

// opLoopsFor returns the loops that merge by op inline, ok false when op is
// zero or M has no specialised loops (the func value merges then).
func opLoopsFor[M any](op CombineOp) (l opLoops[M], ok bool) {
	var loops any
	switch any(*new(M)).(type) {
	case float32:
		loops = numericLoops[float32](op)
	case int32:
		loops = numericLoops[int32](op)
	case VertexID:
		loops = numericLoops[VertexID](op)
	}
	l, ok = loops.(opLoops[M])
	return l, ok
}

func numericLoops[N numeric](op CombineOp) any {
	switch op {
	case CombineSum:
		return opLoops[N]{addSum[N], denseSum[N], foldSum[N]}
	case CombineMin:
		return opLoops[N]{addMin[N], denseMin[N], foldMin[N]}
	}
	return nil
}

// foldFunc, foldSum and foldMin are the fold's chunk loops (see
// streambuf.NewFolder): an update's slot is its destination's offset in
// partition p, and a doomed update merges into its survivor through combine,
// by a + b, or by a < b ? a : b, the survivor being a.
func foldFunc[M any](per uint32, combine func(a, b M) M) func(int, []Update[M], []int32, []uint32, uint32) int {
	return func(p int, recs []Update[M], pos []int32, gen []uint32, cur uint32) int {
		base, keep := uint32(p)*per, 0
		for i, u := range recs {
			if k := uint32(u.Dst) - base; gen[k] == cur {
				d := &recs[pos[k]]
				d.Val = combine(d.Val, u.Val)
			} else {
				gen[k], pos[k] = cur, int32(keep)
				if keep != i {
					recs[keep] = u
				}
				keep++
			}
		}
		return keep
	}
}

func foldSum[N numeric](per uint32) func(int, []Update[N], []int32, []uint32, uint32) int {
	return func(p int, recs []Update[N], pos []int32, gen []uint32, cur uint32) int {
		base, keep := uint32(p)*per, 0
		for i, u := range recs {
			if k := uint32(u.Dst) - base; gen[k] == cur {
				recs[pos[k]].Val += u.Val
			} else {
				gen[k], pos[k] = cur, int32(keep)
				if keep != i {
					recs[keep] = u
				}
				keep++
			}
		}
		return keep
	}
}

func foldMin[N numeric](per uint32) func(int, []Update[N], []int32, []uint32, uint32) int {
	return func(p int, recs []Update[N], pos []int32, gen []uint32, cur uint32) int {
		base, keep := uint32(p)*per, 0
		for i, u := range recs {
			if k := uint32(u.Dst) - base; gen[k] == cur {
				if d := &recs[pos[k]]; !(d.Val < u.Val) {
					d.Val = u.Val
				}
			} else {
				gen[k], pos[k] = cur, int32(keep)
				if keep != i {
					recs[keep] = u
				}
				keep++
			}
		}
		return keep
	}
}

// CombineBuffer is the thread-private combining buffer the scatter kernel
// puts in front of the shared update stream when the program implements
// Combiner. It has two representations, chosen once at construction from the
// destination count (see NewCombineBuffer).
//
// Over few enough destinations it is a dense accumulator: a value per
// destination, a bitmap of the destinations present and the list of bitmap
// words touched, in the order they were first touched. An update to a
// present destination merges into its value, any other stores its value and
// sets its bit, so Add emits nothing; Sweep emits one record per destination
// present — the touched words in first-touch order, each word's destinations
// in ascending order — and clears the words it walks.
//
// Otherwise it is a write-back, direct-mapped cache of update records keyed
// by destination vertex, in front of the small append buffer of §4.1. An
// update whose destination is resident merges in place (one memory access:
// entries are inline {Dst, Val} records); one that maps to a slot held by
// another destination evicts that record to the append buffer and takes the
// slot, so every update added emits at most one record and a hot destination
// stays resident until something displaces it. Sweep evicts what is left when
// the scatter task ends. The slots in use are listed in the order they were
// first taken. An empty slot holds a destination that cannot hash to it
// (emptyKey), so emptiness costs no tag and every VertexID, 0xFFFFFFFF
// included, is a valid key.
//
// Either way Sweep and Reset cost O(what the task touched), never O(table)
// or O(destinations), and the emission order is a pure function of the Add
// sequence.
//
// A CombineBuffer belongs to one goroutine. The kernel holds one per scatter
// worker for the whole run and Resets it at the start of every scatter task
// to the window that task calls for, so the combining it performs is a
// deterministic function of the task's edge order, independent of thread
// scheduling and of what the buffer held before.
//
// A merge goes through the combine func, or inline when the buffer was made
// with a CombineOp that has a loop specialised for M; the loop is picked at
// construction, so Add dispatches once per block, not once per update.
type CombineBuffer[M any] struct {
	table    []Update[M] // sized for the widest window; table[:1<<(32-shift)] is in use
	occupied []uint32    // slots holding a resident, in first-taken order
	out      []Update[M] // records awaiting the next drain
	shift    uint8
	combine  func(a, b M) M
	add      func(c *CombineBuffer[M], us []Update[M], fn func([]Update[M]))

	// The dense accumulator; acc is nil in the cache representation.
	acc     []M      // acc[d] is destination d's value while d's bit is set
	seen    []uint64 // bit d%64 of word d/64 set: destination d is present
	touched []uint32 // the nonzero words of seen, in first-touch order

	// Combined counts updates merged away since construction or Reset.
	Combined int64
}

// denseCombineBytes is the widest destination-value array, nv·sizeof(M), a
// combining buffer keeps dense: twice the §4 cache share, the largest size
// BenchmarkCombineBudget measures (1 to 32 MiB) at which the dense
// accumulator scattered faster than the cache in every round. The measured
// crossover lies above it, between 8 MiB (dense ahead on the median, not in
// every round) and 16 MiB (the cache ahead); see CHANGES.md. The step
// of margin is kept because the crossover moves with the host's last-level
// cache and each scatter kernel holds its accumulator outside the §3.4
// budget (Job.MemoryEstimate counts it). Past it the cache, whose table
// stays within a quarter of the share, keeps the footprint bounded whatever
// the graph.
const denseCombineBytes = 2 * CacheBytes

// DenseCombines reports whether a combining buffer of M updates over nv
// destinations keeps them dense: nv is known (> 0) and nv·sizeof(M) fits
// denseCombineBytes.
func DenseCombines[M any](nv int64) bool {
	return nv > 0 && nv <= denseCombineBytes/int64(max(pod.Size[M](), 1))
}

// DenseCombineFootprint is the bytes a combining buffer of M updates over nv
// destinations holds in its dense accumulator: nv·sizeof(M) for the values,
// nv/8 for the occupancy bitmap and nv/16 for the touched-word list, rounded
// up to whole words; 0 when nv selects the cache.
func DenseCombineFootprint[M any](nv int64) int64 {
	if !DenseCombines[M](nv) {
		return 0
	}
	words := (nv + 63) / 64
	return nv*int64(pod.Size[M]()) + words*8 + words*4
}

// combineSlotsPerRec is the cache's slot count per record of window. At 4 the
// table of a MaxBufGrowth window of 8-byte updates is 512 KiB, a quarter of
// the L2 share the partition's vertices are sized for; see CHANGES.md (PR 20)
// for what 1, 2 and 8 measured.
const combineSlotsPerRec = 4

const combineHash = 0x9E3779B1 // 2^32/φ, odd: the top bits of dst·combineHash spread any stride

// emptyKey is the destination an empty slot h holds: 0 hashes to slot 0 and
// 1 to the table's upper half (combineHash's top bit is set) whatever the
// table's size ≥ 2, so neither can be a resident of the slot it marks.
func emptyKey(h uint32) VertexID {
	if h == 0 {
		return 1
	}
	return 0
}

// NewCombineBuffer returns a combining buffer for updates to destinations in
// [0, nv) whose append buffer holds baseRecs records. It merges by combine,
// which op, when non-zero, declares combine to be (see Combining). When
// DenseCombines[M](nv) it is a dense accumulator and ignores the window;
// otherwise (nv ≤ 0 meaning the range is not known) its cache serves windows
// of up to MaxBufGrowth·baseRecs records, readied for the widest.
func NewCombineBuffer[M any](baseRecs int, nv int64, combine func(a, b M) M, op CombineOp) *CombineBuffer[M] {
	return newCombineBuffer(baseRecs, nv, DenseCombines[M](nv), combine, op)
}

// newCombineBuffer is NewCombineBuffer with the representation given: dense
// over nv destinations, or the cache.
func newCombineBuffer[M any](baseRecs int, nv int64, dense bool, combine func(a, b M) M, op CombineOp) *CombineBuffer[M] {
	baseRecs = max(baseRecs, 1)
	c := &CombineBuffer[M]{out: make([]Update[M], 0, baseRecs), combine: combine}
	l, ok := opLoopsFor[M](op)
	if dense {
		words := (nv + 63) / 64
		c.acc, c.seen, c.touched = make([]M, nv), make([]uint64, words), make([]uint32, 0, words)
		c.add = (*CombineBuffer[M]).denseFunc
		if ok {
			c.add = l.dense
		}
		return c
	}
	slots := NextPow2(combineSlotsPerRec * MaxBufGrowth * baseRecs)
	c.table, c.occupied = make([]Update[M], slots), make([]uint32, 0, slots)
	c.add = (*CombineBuffer[M]).addFunc
	if ok {
		c.add = l.add
	}
	c.table[0].Dst = emptyKey(0) // the zero value already marks every other slot
	c.Reset(MaxBufGrowth * baseRecs)
	return c
}

// Reset forgets every resident and evicted record, zeroes Combined and sizes
// the cache for a window of up to window records (clamped to what
// NewCombineBuffer allocated; the dense accumulator has no window), in
// O(residents) — O(1) after a Sweep. A Reset buffer combines and emits
// exactly like a fresh one Reset to that window.
func (c *CombineBuffer[M]) Reset(window int) {
	c.out, c.Combined = c.out[:0], 0
	if c.acc != nil {
		for _, w := range c.touched {
			c.seen[w] = 0
		}
		c.touched = c.touched[:0]
		return
	}
	for _, h := range c.occupied {
		c.table[h].Dst = emptyKey(h)
	}
	c.occupied = c.occupied[:0]
	slots := min(NextPow2(max(combineSlotsPerRec*window, 2)), len(c.table))
	c.shift = uint8(32 - bits.TrailingZeros(uint(slots)))
}

// MaxBufGrowth is the ceiling of DegreeAwareBufRecs' growth over the base
// capacity: NewCombineBuffer(baseRecs) serves any window DegreeAwareBufRecs
// returns for that base.
const MaxBufGrowth = 16

// DegreeAwareBufRecs sizes the combining cache's window (records; the cache
// gets combineSlotsPerRec slots for each; the dense accumulator has none) of
// one scatter task from the average out-degree of the partition it
// scatters. baseRecs is the run's private buffer capacity in records
// (JobSetup.PrivateBufRecs, or PrivateBufBytes over the update record size);
// edges and verts describe the partition. A vertex of out-degree d emits up
// to d updates whose destinations repeat across the partition's edge chunk,
// so a window proportional to the average degree keeps correspondingly more
// destinations resident; dense partitions grow it up to MaxBufGrowth× the
// base, growth is capped at the edge count (a task cannot make more
// residents than it has edges), and the result never shrinks below
// baseRecs. It is a pure function of (baseRecs, edges, verts), so combining
// stays a deterministic function of the task's edge order.
func DegreeAwareBufRecs(baseRecs int, edges, verts int64) int {
	if baseRecs < 1 {
		baseRecs = 1
	}
	if edges <= 0 || verts <= 0 {
		return baseRecs
	}
	avg := (edges + verts - 1) / verts
	if avg < 1 {
		avg = 1
	}
	recs := int64(baseRecs) * avg
	if lim := int64(baseRecs) * MaxBufGrowth; recs > lim {
		recs = lim
	}
	if recs > edges {
		recs = edges
	}
	if recs < int64(baseRecs) {
		recs = int64(baseRecs)
	}
	return int(recs)
}

// Add merges a block of updates into the buffer, one at a time, handing the
// cache's evicted records to fn (the slice aliases the buffer and is only
// valid within fn) whenever the append buffer fills. The dense accumulator
// evicts nothing.
func (c *CombineBuffer[M]) Add(us []Update[M], fn func([]Update[M])) { c.add(c, us, fn) }

// addFunc, addSum and addMin are Add's loops: a hit merges the update into
// its resident e through combine, by e + u, or by e < u ? e : u; a miss takes
// the slot, evicting its resident. The miss path is written out in each: a
// method is too large to inline, and its call per miss shows in
// BenchmarkScatterKernel.
func (c *CombineBuffer[M]) addFunc(us []Update[M], fn func([]Update[M])) {
	table, shift, combined, combine := c.table, c.shift&31, c.Combined, c.combine
	for _, u := range us {
		h := uint32(u.Dst) * combineHash >> shift
		if e := &table[h]; e.Dst == u.Dst {
			e.Val = combine(e.Val, u.Val)
			combined++
		} else {
			if e.Dst == emptyKey(h) {
				c.occupied = append(c.occupied, h)
			} else if c.out = append(c.out, *e); len(c.out) == cap(c.out) {
				c.drain(fn)
			}
			*e = u
		}
	}
	c.Combined = combined
}

func addSum[N numeric](c *CombineBuffer[N], us []Update[N], fn func([]Update[N])) {
	table, shift, combined := c.table, c.shift&31, c.Combined
	for _, u := range us {
		h := uint32(u.Dst) * combineHash >> shift
		if e := &table[h]; e.Dst == u.Dst {
			e.Val += u.Val
			combined++
		} else {
			if e.Dst == emptyKey(h) {
				c.occupied = append(c.occupied, h)
			} else if c.out = append(c.out, *e); len(c.out) == cap(c.out) {
				c.drain(fn)
			}
			*e = u
		}
	}
	c.Combined = combined
}

func addMin[N numeric](c *CombineBuffer[N], us []Update[N], fn func([]Update[N])) {
	table, shift, combined := c.table, c.shift&31, c.Combined
	for _, u := range us {
		h := uint32(u.Dst) * combineHash >> shift
		if e := &table[h]; e.Dst == u.Dst {
			if !(e.Val < u.Val) {
				e.Val = u.Val
			}
			combined++
		} else {
			if e.Dst == emptyKey(h) {
				c.occupied = append(c.occupied, h)
			} else if c.out = append(c.out, *e); len(c.out) == cap(c.out) {
				c.drain(fn)
			}
			*e = u
		}
	}
	c.Combined = combined
}

// denseFunc, denseSum and denseMin are Add's loops over the dense
// accumulator: an update to a present destination merges into its value
// through combine, by a + u, or by a < u ? a : u; the first one to a
// destination stores its value and sets its bit, listing the bit's word when
// it was zero.
func (c *CombineBuffer[M]) denseFunc(us []Update[M], _ func([]Update[M])) {
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

func denseSum[N numeric](c *CombineBuffer[N], us []Update[N], _ func([]Update[N])) {
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

func denseMin[N numeric](c *CombineBuffer[N], us []Update[N], _ func([]Update[N])) {
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

// drain hands the evicted records to fn and empties the append buffer;
// residents stay. An empty buffer skips fn.
func (c *CombineBuffer[M]) drain(fn func([]Update[M])) {
	if len(c.out) > 0 {
		fn(c.out)
	}
	c.out = c.out[:0]
}

// Sweep evicts every resident, in the order their slots were first taken —
// or, dense, every destination present, word by touched word — draining
// through fn as the append buffer fills and once at the end. It leaves the
// buffer empty; Combined is kept for the caller to read.
func (c *CombineBuffer[M]) Sweep(fn func([]Update[M])) {
	if c.acc != nil {
		for _, w := range c.touched {
			m, base := c.seen[w], VertexID(w)<<6
			c.seen[w] = 0
			for ; m != 0; m &= m - 1 {
				d := base | VertexID(bits.TrailingZeros64(m))
				if c.out = append(c.out, Update[M]{Dst: d, Val: c.acc[d]}); len(c.out) == cap(c.out) {
					c.drain(fn)
				}
			}
		}
		c.touched = c.touched[:0]
		c.drain(fn)
		return
	}
	for _, h := range c.occupied {
		c.out = append(c.out, c.table[h])
		c.table[h].Dst = emptyKey(h)
		if len(c.out) == cap(c.out) {
			c.drain(fn)
		}
	}
	c.occupied = c.occupied[:0]
	c.drain(fn)
}
