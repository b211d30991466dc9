package core

import "repro/internal/streambuf"

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
// reused for every fold of a run.
func NewUpdateFolder[M any](split Split, workers int, combine func(a, b M) M) *streambuf.Folder[Update[M]] {
	per := split.PerPartition()
	if per > MaxFoldSlots {
		return nil
	}
	return streambuf.NewFolder(workers, int(per), func(p int, u Update[M]) uint32 {
		return uint32(u.Dst) - uint32(p)*uint32(per)
	}, func(dst *Update[M], src Update[M]) {
		dst.Val = combine(dst.Val, src.Val)
	})
}

// CombineBuffer is the thread-private combining buffer the engines put in
// front of the shared update stream when the program implements Combiner.
// It replaces the plain private append buffer of §4.1: updates are staged
// in a small dense record array, and a hash slot table keyed by destination
// vertex lets a new update merge into a staged one addressed to the same
// vertex instead of occupying a second record. The slot table is
// direct-mapped — a collision between different destinations simply
// forgets the older mapping (a missed combining opportunity, never a
// correctness issue) — and is invalidated in O(1) on drain by bumping an
// epoch rather than clearing.
//
// A CombineBuffer belongs to one goroutine; it is not safe for concurrent
// use. Engines hold one per scatter worker for the whole run and Reset it
// at the start of every scatter task to the capacity that task calls for,
// so the combining it performs is a deterministic function of the task's
// edge order, independent of thread scheduling and of what the buffer
// staged before.
type CombineBuffer[M any] struct {
	store   []Update[M] // backing array, sized for the largest capacity
	recs    []Update[M] // store[:n:capacity] — the staged records
	slots   []uint64    // epoch<<32 | (record index + 1)
	mask    uint32
	epoch   uint32
	combine func(a, b M) M

	// Combined counts updates merged away since construction or Reset.
	Combined int64
}

// NewCombineBuffer returns a combining buffer staging up to capacity
// records between drains. The slot table is sized at twice the capacity to
// keep the collision rate low.
func NewCombineBuffer[M any](capacity int, combine func(a, b M) M) *CombineBuffer[M] {
	if capacity < 1 {
		capacity = 1
	}
	c := &CombineBuffer[M]{
		store:   make([]Update[M], capacity),
		slots:   make([]uint64, NextPow2(2*capacity)),
		combine: combine,
	}
	c.Reset(capacity)
	return c
}

// Reset empties the buffer, zeroes Combined and re-sizes it to stage up to
// capacity records, in O(1): the allocation made by NewCombineBuffer is
// kept (its capacity is the ceiling; a larger request is clamped to it),
// the slot table shrinks to the prefix a fresh buffer of this capacity
// would have, and every remembered slot is forgotten by the epoch bump. A
// Reset buffer therefore combines, fills and drains exactly like
// NewCombineBuffer(capacity, combine).
func (c *CombineBuffer[M]) Reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	if capacity > len(c.store) {
		capacity = len(c.store)
	}
	c.recs = c.store[:0:capacity]
	c.mask = uint32(NextPow2(2*capacity) - 1)
	c.Combined = 0
	c.bumpEpoch()
}

// bumpEpoch invalidates every slot in O(1).
func (c *CombineBuffer[M]) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 { // epoch wrapped: stale slots could alias, clear them
		for i := range c.slots {
			c.slots[i] = 0
		}
		c.epoch = 1
	}
}

// MaxBufGrowth is the ceiling of DegreeAwareBufRecs' growth over the base
// capacity: a combining buffer made with MaxBufGrowth·baseRecs records can
// be Reset to any capacity DegreeAwareBufRecs returns for that base.
const MaxBufGrowth = 16

// DegreeAwareBufRecs sizes a scatter-side combining buffer for one
// partition from its average out-degree. baseRecs is the configured
// capacity (PrivateBufBytes / record size); edges and verts describe the
// partition being scattered. A vertex of out-degree d emits up to d updates
// whose destinations repeat across the partition's edge chunk, so a window
// proportional to the average degree catches correspondingly more
// same-destination merges; dense partitions grow the buffer up to
// MaxBufGrowth× the base, growth is capped at the partition's own edge
// count (a bigger buffer than the chunk cannot combine anything extra), and
// the result never shrinks below baseRecs. The result is a deterministic
// function of (baseRecs, edges, verts), so combining stays a deterministic
// function of the partition's edge order.
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

// Add stages one update, merging it into a staged update with the same
// destination when the slot table still remembers one. It returns true when
// the buffer is full and must be drained before the next Add.
func (c *CombineBuffer[M]) Add(dst VertexID, val M) bool {
	h := (uint32(dst) * 0x9E3779B1) >> 7 & c.mask
	w := c.slots[h]
	if uint32(w>>32) == c.epoch {
		if r := &c.recs[uint32(w)-1]; r.Dst == dst {
			r.Val = c.combine(r.Val, val)
			c.Combined++
			return false
		}
	}
	c.recs = append(c.recs, Update[M]{Dst: dst, Val: val})
	c.slots[h] = uint64(c.epoch)<<32 | uint64(len(c.recs))
	return len(c.recs) == cap(c.recs)
}

// Len returns the number of staged records.
func (c *CombineBuffer[M]) Len() int { return len(c.recs) }

// Drain hands the staged records to fn (the slice aliases the buffer and
// is only valid within fn) and resets the buffer. Draining an empty buffer
// skips fn.
func (c *CombineBuffer[M]) Drain(fn func([]Update[M])) {
	if len(c.recs) > 0 {
		fn(c.recs)
	}
	c.recs = c.recs[:0]
	c.bumpEpoch()
}
